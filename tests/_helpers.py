"""Shared helpers for the test suite: random codes, and the slow oracles
that the fast paths of the package are checked against."""

import functools
import math

import numpy as np

from nrtcodes.codes import LinearCode
from nrtcodes.construct import _check_nodes
from nrtcodes.gf import DIGIT_CHARS, GF
from nrtcodes.poly import INF, binom_mod
from nrtcodes.words import (PointFileError, _content_lines, _read_header,
                            hamming_weight, nrt_weight)


def random_code(space, k, rng):
    """A uniformly random k-dimensional code (resampling until full rank)."""
    while True:
        rows = [space.flatten(space.random_word(rng)) for _ in range(k)]
        code = LinearCode(space, rows)
        if code.k == k:
            return code


def all_subspaces(space):
    """Every linear code of the space, found by closing under extensions."""
    zero = LinearCode.zero(space)
    seen = {zero.basis: zero}
    frontier = [zero]
    vectors = [space.flatten(w) for w in space.all_words()]
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


def read_point_array_by_line(stream):
    """Line-by-line point-file parser, the oracle of `read_point_set`:
    returns the (N, n, s) label array, least significant digit first."""
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


def parity_weight_by_composition(check):
    """The per-composition search, the oracle of `parity_nrt_weight`:
    totals ascending, one fresh rank per composition of each total."""
    from nrtcodes.codes import rank
    from nrtcodes.geometry import bounded_compositions

    space = check.space
    gf = space.gf
    n, s = space.n, space.s
    for total in range(1, space.dim + 1):
        for d_vec in bounded_compositions(total, n, s):
            cols = []
            for j, d in enumerate(d_vec):
                for i in range(d):
                    cols.append(tuple(row[j * s + i] for row in check.basis))
            if rank(gf, cols) < len(cols):
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
