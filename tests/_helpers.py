"""Shared helpers for the test suite: random codes, and the slow oracles
that the fast paths of the package are checked against."""

import functools
import math
import os
import subprocess
import sys
from itertools import product
from unittest import mock

import numpy as np

import nrtcodes
from nrtcodes import codes
from nrtcodes.codes import LinearCode, corner_box_counts, weight_enumerator
from nrtcodes.construct import _check_nodes
from nrtcodes.gf import DIGIT_CHARS, GF
from nrtcodes.peano import BaseChangeWeights
from nrtcodes.poly import INF, binom_mod, hyper_eval, normalize
from nrtcodes.spectra import ball_size, distance_spectrum
from nrtcodes.words import (Distribution, PointFileError, Space, Word, _read_header,
                            hamming_weight, nrt_weight)


def run_fresh(script, cwd=None):
    """Run `script` in a fresh interpreter on this package; its stdout."""
    src = os.path.dirname(os.path.dirname(nrtcodes.__file__))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=cwd, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    return result.stdout


# the child caps its own address space before anything else: a preexec_fn
# would run Python code between fork and exec of this threaded process
_CAP = "import resource\nresource.setrlimit(resource.RLIMIT_AS, ({0}, {0}))\n"


@functools.cache
def _address_space_cap_enforced() -> bool:
    """Whether a child asking for 512 MB under a 100 MB RLIMIT_AS fails."""
    try:
        import resource  # noqa: F401  (absent off POSIX)
    except ImportError:
        return False
    probe = subprocess.run([sys.executable, "-c", _CAP.format(100 << 20) + "bytearray(512 << 20)"],
                           capture_output=True)
    return probe.returncode != 0


def run_cli_capped(args, cap_mb, cwd):
    """Run `nrtcodes.cli` as `python -m` would, with `args`, in a child
    whose address space is capped at `cap_mb` MB (RLIMIT_AS, on that child
    only), with OPENBLAS_NUM_THREADS cleared so that numpy starts as it
    does by default.  Checks the exit contract under the cap: no signal,
    no traceback, no internal fault and no OpenBLAS abort (which exits 1,
    the "verified false" code).  Skips where RLIMIT_AS is not enforced."""
    import pytest

    if not _address_space_cap_enforced():
        pytest.skip("RLIMIT_AS is not enforced on this platform")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(nrtcodes.__file__))
    script = _CAP.format(cap_mb << 20) + (
        "import runpy\nrunpy.run_module('nrtcodes.cli', run_name='__main__', alter_sys=True)\n")
    result = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                            text=True, cwd=cwd, env=env, timeout=300)
    said = result.stdout + result.stderr
    assert result.returncode in (0, 1, 2), (args, result.returncode, said)
    for mark in ("Traceback", "internal:", "OpenBLAS error"):
        assert mark not in said, (args, said)
    return result


def run_without_numpy(script, cwd=None):
    """Run `script` in a fresh interpreter whose `nrtcodes.gf` refuses to
    build the numpy field arrays, and check that it imported no numpy."""
    return run_fresh("import sys\n"
                     "from nrtcodes import cli, gf\n"
                     "assert 'numpy' not in sys.modules\n"
                     "def refuse(*field):\n"
                     "    raise AssertionError('field arrays built')\n"
                     "gf._field_arrays = refuse\n"
                     + script +
                     "assert 'numpy' not in sys.modules\n", cwd)


def all_words(space):
    """Every word of the space, in product order."""
    rows = list(product(range(space.q), repeat=space.s))
    return product(rows, repeat=space.n)


def random_word(space, rng) -> Word:
    return tuple(tuple(rng.randrange(space.q) for _ in range(space.s))
                 for _ in range(space.n))


def linear_combine(space, alpha: int, w1: Word, beta: int, w2: Word) -> Word:
    """Digitwise alpha*w1 + beta*w2; the vector space law of Q^n(q^s)."""
    return space.add(space.scale(alpha, w1), space.scale(beta, w2))


def from_points(space, points) -> Distribution:
    """The point set of exact coordinates `points`."""
    return Distribution(space, words=[space.point_to_word(p) for p in points])


def random_code(space, k, rng):
    """A uniformly random k-dimensional code (resampling until full rank)."""
    while True:
        rows = [space.flatten(random_word(space, rng)) for _ in range(k)]
        code = LinearCode(space, rows)
        if code.k == k:
            return code


def span_counts(space, rows):
    """The NRT weight counts of the q^len(rows) combinations of the flat
    rows, with multiplicity: the spectrum of their lazy span from zero,
    which `codes.span_weight_counts` counts from the span's held code."""
    return distance_spectrum(Distribution(space, generator=rows), space.zero())


def route_counts(route, space, rows):
    """`span_counts` by `route`, "ranks" or "words", whichever route
    `codes._route` would pick."""
    with mock.patch.object(codes, "_route", lambda *args, **kwargs: route):
        return span_counts(space, rows)


def counted_weight(code, metric="nrt"):
    """The least nonzero weight of a nonzero code, read off the weight
    counts of its words (`codes.span_weight_counts`; the Hamming weight at
    depth 1), whichever route `LinearCode.min_weight` takes."""
    if metric != "nrt":
        code = LinearCode._reduced(Space(code.space.gf, code.space.dim, 1), code.basis)
    counts = codes.span_weight_counts(code)
    return next(w for w in range(1, code.space.dim + 1) if counts[w])


def corner_counts(dist):
    """`codes.corner_box_counts` keyed by the side exponents of each box."""
    space = dist.space
    return dict(zip(product(range(space.s + 1), repeat=space.n), corner_box_counts(dist)))


def all_subspaces(space):
    """Every linear code of the space, found by closing under extensions."""
    zero = LinearCode.zero(space)
    seen = {zero.basis: zero}
    frontier = [zero]
    vectors = [space.flatten(w) for w in all_words(space)]
    while frontier:
        nxt = []
        for code in frontier:
            for v in vectors:
                if any(v):
                    bigger = LinearCode(space, list(code.basis) + [list(v)])
                    if bigger.basis not in seen:
                        seen[bigger.basis] = bigger
                        nxt.append(bigger)
        frontier = nxt
    return list(seen.values())


def schoolbook_add(gf, a, b):
    """Digitwise sum mod p, the addition oracle of the field tables."""
    return gf.from_coeffs([(x + y) % gf.p for x, y in zip(gf.coeffs(a), gf.coeffs(b))])


def schoolbook_mul(gf, a, b):
    """Product of the digit polynomials of a and b reduced modulo the field
    polynomial over F_p, the multiplication oracle of the field tables."""
    p, e, modulus = gf.p, gf.e, gf.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(gf.coeffs(a)):
        for j, y in enumerate(gf.coeffs(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    # z^top = z^(top-e) * z^e, and the modulus is monic
    for top in reversed(range(e, 2 * e - 1)):
        c = prod[top]
        for i, m in enumerate(modulus):
            prod[top - e + i] = (prod[top - e + i] - c * m) % p
    return gf.from_coeffs(prod[:e])


# The numpy builder of the field tables that the package used before its
# lookups were built in pure Python: the oracle of `gf._field_lookups` and
# `gf._field_arrays`, entry by entry.
@functools.lru_cache(maxsize=16)
def _field_tables(p: int, e: int, modulus: tuple[int, ...]) -> dict:
    import numpy as np

    q = p ** e
    labels = np.arange(q, dtype=np.int32)  # int32 halves the q x q temporaries
    place = p ** np.arange(e, dtype=np.int32)
    coeff = labels[:, None] // place % p  # (q, e), low digit first
    add = sum((coeff[:, None, j] + coeff[None, :, j]) % p * place[j] for j in range(e))
    # z * b: digits move up one place and z^e = -(m_0 + ... + m_(e-1) z^(e-1))
    shifted = np.concatenate([np.zeros((q, 1), dtype=coeff.dtype), coeff[:, :-1]], axis=1)
    times_z = (shifted - coeff[:, -1:] * np.array(modulus[:e])) % p @ place
    z_multiples = [labels]  # z^i * b for every b
    for _ in range(e - 1):
        z_multiples.append(times_z[z_multiples[-1]])
    z_digits = coeff[np.array(z_multiples)]  # (i, b, j): digit j of z^i b
    # digit j of a*b = sum_i a_i * (digit j of z^i b) mod p
    mul = sum(coeff @ z_digits[:, :, j] % p * place[j] for j in range(e))
    frobenius = labels  # a -> a^p
    for _ in range(p - 1):
        frobenius = mul[frobenius, labels]
    trace = np.zeros(q, dtype=labels.dtype)
    conj = labels
    for _ in range(e):
        trace = add[trace, conj]
        conj = frobenius[conj]
    if (trace >= p).any():
        raise AssertionError("trace left the prime subfield")
    # a*b = 1 has one solution b per a != 0; row 0 gives 0
    inv = np.argmax(mul == 1, axis=1)
    neg = -coeff % p @ place

    tables = {}
    for name, tab in (("add", add), ("mul", mul), ("neg", neg), ("trace", trace),
                      ("coeff", coeff)):
        tables[f"{name}_table"] = tab.astype(np.int16)
        tables[f"{name}_table"].setflags(write=False)
    shared = labels.tolist()  # one int object per label, shared by all rows
    for name, tab in (("add", add), ("mul", mul)):
        tables[f"{name}_lookup"] = tuple(tuple(map(shared.__getitem__, row.tolist()))
                                         for row in tab)
    for name, tab in (("neg", neg), ("inv", inv), ("trace", trace)):
        tables[f"{name}_lookup"] = tuple(tab.tolist())
    return tables


def _parse_row(q, s, token, line):
    if len(token) != s:
        raise PointFileError(f"digit string {token!r} is not {s} long", line)
    try:
        eta = [DIGIT_CHARS.index(ch) for ch in token.lower()]
    except ValueError:
        raise PointFileError(f"bad digit in {token!r}", line) from None
    if any(d >= q for d in eta):
        raise PointFileError(f"digit out of range in {token!r}", line)
    return eta


def _content_lines(stream):
    for lineno, raw in enumerate(stream, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def read_point_array_by_line(stream):
    """Line-by-line point-file parser over the lines of a text stream, the
    oracle of `read_point_set`: returns the (N, n, s) label array, least
    significant digit first."""
    lines = _content_lines(stream)
    field, n, s, count, lineno = _read_header(lines, "point set")
    eta = []
    for _ in range(count):
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise PointFileError("fewer points than the header promised", lineno) from None
        tokens = text.split()
        if len(tokens) != n:
            raise PointFileError(f"expected {n} coordinates", lineno)
        eta.append([_parse_row(field.q, s, t, lineno) for t in tokens])
    eta = np.array(eta, dtype=np.int16).reshape(count, n, s)
    return np.ascontiguousarray(eta[:, :, ::-1])


def point_lines_by_word(arr) -> bytes:
    """The point lines of an (N, n, s) label array, one `" ".join` of
    digit strings per word, most significant digit first: the oracle of
    the body `write_point_set` writes."""
    return "".join(" ".join("".join(DIGIT_CHARS[v] for v in reversed(row)) for row in word)
                   + "\n" for word in np.asarray(arr).tolist()).encode()


def span_array_by_passes(gf, rows, width):
    """The k-pass span enumeration, the oracle of `bulk.span_array`:
    combination i takes digit m of i in base q as the coefficient of row m."""
    q = gf.q
    count = q ** len(rows)
    out = np.zeros((count, width), dtype=np.int16)
    idx = np.arange(count)
    for m, row in enumerate(rows):
        c = (idx // q ** m) % q
        scaled = gf.mul_table[np.asarray(row, dtype=np.intp)[None, :], c[:, None]]
        out = gf.add_table[out, scaled]
    return out


def evaluation_matrix(gf: GF, nodes, s: int, k: int):
    """The (n*s) x k matrix of the coefficient-vector-to-word map: column m
    is the flattened word of the monomial z^m.  Row order matches the
    flattened word layout.  The closed-form oracle of
    `construct.evaluation_word`."""
    nodes = _check_nodes(gf, nodes)
    rows = []
    for beta in nodes:
        for i in range(s):
            d = s - 1 - i  # derivative order at this digit position
            row = []
            for m in range(k):
                if beta == INF:
                    row.append(1 if m == k - 1 - d else 0)
                else:
                    c = binom_mod(m, d, gf.p)
                    # 0^0 = 1 so constants survive at beta = 0
                    row.append(gf.mul(c, gf.pow(beta, m - d)) if m >= d else 0)
            rows.append(row)
    return rows


def lattice_discrepancy(dist):
    """Exact star discrepancy by integer counts on the full q^-s lattice.

    For y in the lattice cell (c, c + 1] / q^s, the box [0, y) holds the
    points x <= c / q^s, a cumulative sum of the lattice histogram, while
    its volume runs between prod c_j and prod (c_j + 1) over q^(sn); the
    supremum is the larger gap at those two ends, over all cells.  Needs
    N q^(sn) < 2^62, so every product fits in int64."""
    from fractions import Fraction

    space = dist.space
    q, n, s, count = space.q, space.n, space.s, len(dist)
    side = q ** s
    assert count * side ** n < 1 << 62
    coords = np.zeros((count, n), dtype=np.int64)
    for i in range(s):  # most significant digit first
        coords = coords * q + dist.eta_array()[:, :, i]
    cum = np.zeros((side,) * n, dtype=np.int64)
    np.add.at(cum, tuple(coords.T), 1)
    for axis in range(n):
        cum = np.cumsum(cum, axis=axis)
    lower = np.full((side,) * n, count, dtype=np.int64)
    upper = lower.copy()
    for axis in range(n):
        shape = [1] * n
        shape[axis] = side
        lower = lower * np.arange(side).reshape(shape)
        upper = upper * np.arange(1, side + 1).reshape(shape)
    scaled = cum * side ** n
    worst = max(int(np.abs(scaled - lower).max()), int(np.abs(scaled - upper).max()))
    return Fraction(worst, count * side ** n)


def rref_by_columns(gf, rows):
    """Gauss-Jordan elimination column by column, the oracle of
    `codes.rref` and, through its length, of every rank the package
    takes with `codes._push`: reduced row echelon form, nonzero rows
    only."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    add, mul, neg = gf.add_lookup, gf.mul_lookup, gf.neg_lookup
    width = len(mat[0])
    pivot_row = 0
    for col in range(width):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        scale = mul[gf.inv(mat[pivot_row][col])]
        prow = mat[pivot_row] = [scale[v] for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                # row - c * pivot row, as row + (-c) * pivot row
                times = mul[neg[mat[r][col]]]
                mat[r] = [add[a][times[b]] for a, b in zip(mat[r], prow)]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [r for r in mat[:pivot_row]]


def profile_ranks_one_by_one(space, rows):
    """The rank of the columns of each prefix profile, one fresh rank per
    profile: the top d_j digits of coordinate j, over all rows.  The
    oracle of `codes._profile_ranks`, in its C order."""
    n, s = space.n, space.s
    out = []
    for depths in product(range(s + 1), repeat=n):
        cols = [[row[j * s + s - 1 - i] for row in rows]
                for j, d in enumerate(depths) for i in range(d)]
        out.append(len(rref_by_columns(space.gf, cols)) if rows else 0)
    return out


def bounded_compositions(total: int, parts: int, bound: int):
    """All (a_1..a_parts) with sum total and 0 <= a_j <= bound, colex order
    (last coordinate varies slowest)."""
    if parts == 1:
        if 0 <= total <= bound:
            yield (total,)
        return
    for last in range(min(total, bound) + 1):
        for head in bounded_compositions(total - last, parts - 1, bound):
            yield head + (last,)


def parity_weight_by_composition(check):
    """The per-composition search, the oracle of the parity walk
    (`codes._dependent_profile` over check rows): totals ascending, one
    fresh rank per composition of each total."""
    space = check.space
    gf = space.gf
    n, s = space.n, space.s
    for total in range(1, space.dim + 1):
        for d_vec in bounded_compositions(total, n, s):
            cols = []
            for j, d in enumerate(d_vec):
                for i in range(d):
                    cols.append(tuple(row[j * s + i] for row in check.basis))
            if len(rref_by_columns(gf, cols)) < len(cols):
                return total
    raise ValueError("zero code has no nonzero word")


def mds_spectrum_alt(n, s, k, q):
    """The MDS spectrum in its equivalent (q-1)-factored form, the oracle
    of `spectra.mds_spectrum`."""
    from nrtcodes.spectra import composition_count

    if not 0 <= k <= n * s:
        raise ValueError("k out of range")
    rho = n * s - k + 1
    w = [0] * (n * s + 1)
    w[0] = 1
    for r in range(rho, n * s + 1):
        total = 0
        for l in range(1, n + 1):
            sig = composition_count(l, r, s)
            if not sig:
                continue
            inner = sum((-1) ** t * math.comb(l - 1, t) * q ** (r - rho - t)
                        for t in range(0, r - rho + 1))
            total += math.comb(n, l) * sig * inner
        w[r] = (q - 1) * total
    return w


def net_spectrum_alt(n, s, q):
    """(q-1)-factored form of the net spectrum, the oracle of
    `spectra.net_spectrum`.  The printed source of this variant carries a
    sign typo; the alternating sign is intended."""
    from nrtcodes.spectra import weak_composition_count

    rho = (n - 1) * s + 1
    w = [0] * (n * s + 1)
    w[0] = 1
    for r in range(rho, n * s + 1):
        sig = weak_composition_count(n, r, s)
        inner = sum((-1) ** t * math.comb(n - 1, t) * q ** (r - rho - t)
                    for t in range(0, r - rho + 1))
        w[r] = sig * (q - 1) * inner
    return w


def _anchor_digits(q, a, m):
    """Leading a radix digits of m / q^a, most significant first."""
    if m >= q ** a:
        raise ValueError("box position out of range")
    return tuple(m // q ** i % q for i in range(a - 1, -1, -1))


def box_contains(box, word, q, s):
    """Whether a tuple word lies in an elementary box, digit by digit."""
    for row, aj, mj in zip(word, box.a, box.m):
        digits = _anchor_digits(q, aj, mj)
        for i, want in enumerate(digits):
            # eta digit i+1 of the row; digits beyond the stored depth are 0
            have = row[s - 1 - i] if i < s else 0
            if have != want:
                return False
    return True


def box_count(dist, box):
    """Points of `dist` in `box`, one word at a time: the oracle of the
    bincount box families."""
    space = dist.space
    if len(box.a) != space.n:
        raise ValueError("box dimension mismatch")
    return sum(1 for w in dist.words()
               if box_contains(box, w, space.q, space.s))


def family_report(dist, families):
    """Box counts family by family, the oracle of `geometry._box_report`:
    for each (a_vec, per_box) in turn, every point's key
    m_1 + q^a_1 (m_2 + q^a_2 (m_3 + ...)) from scratch by Horner's rule
    (digits past the stored depth are 0) and one bincount; the witness is
    the first box, in key order, of the first family whose count is not
    per_box."""
    from nrtcodes.geometry import BoxReport, ElementaryBox

    q, s = dist.space.q, dist.space.s
    eta = dist.eta_array()
    for a_vec, per_box in families:
        keys = np.zeros(len(dist), dtype=np.int64)
        for j in reversed(range(len(a_vec))):
            for i in range(a_vec[j]):
                keys = keys * q + (eta[:, j, i] if i < s else 0)
        counts = np.bincount(keys, minlength=q ** sum(a_vec))
        bad = np.flatnonzero(counts != per_box)
        if bad.size:
            key, m_vec = int(bad[0]), []
            for a in a_vec:
                key, m = divmod(key, q ** a)
                m_vec.append(m)
            return BoxReport(False, ElementaryBox(tuple(a_vec), tuple(m_vec)),
                             int(counts[bad[0]]), per_box)
    return BoxReport(True)


def same_multiset(dist, other):
    """Whether two distributions hold the same points with multiplicity."""
    if dist.space != other.space or len(dist) != len(other):
        return False
    # rows in lexicographic order: no integer key, so no bound on q^(ns)
    a, b = (d.array().reshape(len(d), dist.space.dim) for d in (dist, other))
    return bool(np.array_equal(a[np.lexsort(a.T)], b[np.lexsort(b.T)]))


def min_distance(dist, metric="nrt"):
    """Smallest pairwise distance, over every pair of points; needs at
    least two points."""
    if len(dist) < 2:
        raise ValueError("distance needs at least two points")
    weigh = nrt_weight if metric == "nrt" else hamming_weight
    space = dist.space
    ws = dist.words()
    best = None
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            d = weigh(space.sub(ws[i], ws[j]))
            if best is None or d < best:
                best = d
    return best


# The count-based duality check and the n = 1 identities, the oracles of
# `codes.duality_ok`.

def box_duality_ok(dist: Distribution, dual_dist: Distribution) -> bool:
    """Corner-count duality: q^(sum A) #(D in box_A) = N #(D* in box_A*),
    equivalently the box-enumerator functional equation after clearing
    denominators."""
    from itertools import product

    space = dist.space
    q, n, s = space.q, space.n, space.s
    counts, dual_counts = corner_counts(dist), corner_counts(dual_dist)
    for a_vec in product(range(s + 1), repeat=n):
        a_star = tuple(s - a for a in a_vec)
        lhs = counts[a_vec] * q ** sum(a_vec)
        rhs = len(dist) * dual_counts[a_star]
        if lhs != rhs:
            return False
    return True


def weight_enum_identity_n1(dist: Distribution) -> bool:
    """n = 1 bridge between the box and weight enumerators:
    W(D;z) = z^s (1-z) phi(D;1/z) + N z^(s+1)."""
    space = dist.space
    if space.n != 1:
        raise ValueError("identity proven only for n=1")
    s = space.s
    w = weight_enumerator(dist)
    # z^s * phi(1/z) has coefficient phi[a] at degree s - a
    lifted = [0] * (s + 2)
    for a, c in enumerate(corner_box_counts(dist)):
        lifted[s - a] += c
    rhs = [0] * (s + 2)
    for d in range(s + 1):
        rhs[d] += lifted[d]
        rhs[d + 1] -= lifted[d]
    rhs[s + 1] += len(dist)
    return w + [0] * (s + 2 - len(w)) == rhs


def _v_poly(w: list[int], q: int) -> list[int]:
    """(qz - 1) W(z) + 1 - z as an integer coefficient list."""
    out = [0] * (len(w) + 1)
    for r, c in enumerate(w):
        out[r + 1] += q * c
        out[r] -= c
    out[0] += 1
    out[1] -= 1
    return out


def macwilliams_n1_ok(dist: Distribution, dual_dist: Distribution) -> bool:
    """n = 1 MacWilliams identity, checked exactly after clearing
    denominators: q^(s+1) v(D;z) = N sum_r v_r(D*) q^(s+2-r) z^(s+2-r)."""
    space = dist.space
    if space.n != 1 or dual_dist.space.n != 1:
        raise ValueError("identity proven only for n=1")
    s = space.s
    q = space.q
    v = _v_poly(weight_enumerator(dist), q)
    v_dual = _v_poly(weight_enumerator(dual_dist), q)
    width = s + 3
    lhs = ([q ** (s + 1) * c for c in v] + [0] * width)[:width]
    rhs = [0] * width
    for r, c in enumerate(v_dual):
        deg = s + 2 - r
        rhs[deg] += len(dist) * c * q ** deg
    return lhs == rhs


# --- polynomial, digit-block and packing oracles: no command and no
# statement of the paper needs them, so they live with the tests ---

def poly_add(gf: GF, f, g):
    out = [gf.add(a, b) for a, b in zip(f, g)]
    longer = f if len(f) > len(g) else g
    out.extend(longer[len(out):])
    return normalize(out)


def poly_scale(gf: GF, f, c: int):
    if c == 0:
        return []
    return [gf.mul(c, a) for a in f]


def poly_mul(gf: GF, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return normalize(out)


def taylor_expand(gf: GF, f, beta: int) -> list[int]:
    """Hyperderivative values (d^0 f(beta), ..., d^deg(f) f(beta))."""
    return [hyper_eval(gf, f, beta, j) for j in range(len(f))]


def linear_factor_power(gf: GF, beta: int, t: int):
    """(z - beta)^t as a coefficient list."""
    out = [1]
    factor = [gf.neg(beta), 1]
    for _ in range(t):
        out = poly_mul(gf, out, factor)
    return out


def from_taylor(gf: GF, values, beta: int):
    """Rebuild sum_j values[j] (z - beta)^j."""
    out = []
    power = [1]
    factor = [gf.neg(beta), 1]
    for v in values:
        out = poly_add(gf, out, poly_scale(gf, power, v))
        power = poly_mul(gf, power, factor)
    return out


def split_rows(word: Word, g: int) -> Word:
    """Inverse bijection: cut every row of length g*s into g rows."""
    out = []
    for row in word:
        if len(row) % g:
            raise ValueError("row length not divisible by g")
        s = len(row) // g
        for j in range(g):
            out.append(tuple(row[j * s:(j + 1) * s]))
    return tuple(out)


def word_to_base_p(space: Space, word: Word) -> Word:
    """Every q-digit of `word` expanded into its e base-p digits, low digit
    first: the one-word oracle of `Distribution.to_base_p`."""
    return tuple(tuple(d for v in row for d in space.gf.coeffs(v)) for row in word)


def word_base_change_weights(space: Space, word: Word) -> BaseChangeWeights:
    word_p = word_to_base_p(space, word)
    return BaseChangeWeights(nrt_weight(word), nrt_weight(word_p),
                             hamming_weight(word), hamming_weight(word_p),
                             space.gf.e, space.n)


def ball_packing_ok(count: int, t: int, n: int, s: int, q: int) -> bool:
    """Packing bound: `count` disjoint balls of radius t fit in q^(ns)."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    return count * ball_size(t, n, s, q) <= q ** (n * s)
