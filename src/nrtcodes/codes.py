"""Linear codes in Mat_{n,s}(F_q): reduced-row-echelon bases, duality under
the reversed inner product, minimum weights, parity-check matrices, box and
weight enumerators, and character-sum verification.

Codes are stored as RREF bases over the flattened n*s coordinates (row
major), which makes canonical comparisons and double duals bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GF
from .words import Distribution, Space

ENUMERATION_BOUND = 1 << 21


def rref(gf: GF, rows) -> list[list[int]]:
    """Reduced row echelon form; returns only the nonzero rows."""
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


def rank(gf: GF, rows) -> int:
    return len(rref(gf, rows))


def nullspace(gf: GF, rows, width: int) -> list[list[int]]:
    """Canonical (RREF) basis of {x : rows . x = 0} under the plain dot
    product."""
    reduced = rref(gf, rows)
    pivots = []
    for row in reduced:
        for col in range(width):
            if row[col]:
                pivots.append(col)
                break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * width
        vec[fc] = 1
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = gf.neg(prow[fc])
        basis.append(vec)
    return rref(gf, basis)


def _block_reverse(flat, n: int, s: int):
    out = []
    for j in range(n):
        out.extend(reversed(flat[j * s:(j + 1) * s]))
    return out


class LinearCode:
    """A k-dimensional subspace of Mat_{n,s}(F_q), held as an RREF basis
    of flattened words."""

    def __init__(self, space: Space, basis_rows):
        self.space = space
        rows = rref(space.gf, [[int(v) for v in r] for r in basis_rows])
        for r in rows:
            if len(r) != space.dim:
                raise ValueError("basis row length mismatch")
        self.basis = tuple(tuple(r) for r in rows)

    @classmethod
    def from_words(cls, space: Space, words) -> "LinearCode":
        return cls(space, [space.flatten(space.check_word(w)) for w in words])

    @classmethod
    def zero(cls, space: Space) -> "LinearCode":
        return cls(space, [])

    @classmethod
    def whole_space(cls, space: Space) -> "LinearCode":
        eye = []
        for i in range(space.dim):
            row = [0] * space.dim
            row[i] = 1
            eye.append(row)
        return cls(space, eye)

    @property
    def k(self) -> int:
        return len(self.basis)

    def __len__(self):
        return self.space.q ** self.k

    def __eq__(self, other):
        return (isinstance(other, LinearCode) and self.space == other.space
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.space, self.basis))

    def __repr__(self):
        return (f"LinearCode([{self.space.dim},{self.k}]_{self.space.s} "
                f"over {self.space.gf!r})")

    def words_array(self):
        """(q^k, n*s) label array of every codeword (coefficient colex)."""
        from . import bulk

        if len(self) > ENUMERATION_BOUND:
            raise ValueError("code too large to enumerate")
        return bulk.span_array(self.space.gf, self.basis, self.space.dim)

    def words(self):
        return [self.space.unflatten(tuple(int(v) for v in row))
                for row in self.words_array()]

    def distribution(self) -> Distribution:
        arr = self.words_array().reshape(len(self), self.space.n, self.space.s)
        return Distribution(self.space, array=arr)

    def min_weight(self, metric: str = "nrt", method: str = "auto") -> int:
        """Minimum weight over the nonzero codewords.

        Enumerates the code when feasible; beyond the enumeration bound
        the NRT weight falls back to the parity-check prefix-rank search,
        which needs no enumeration at all.
        """
        from . import bulk

        if self.k == 0:
            raise ValueError("zero code has no nonzero word")
        if self.k == self.space.dim:
            return 1
        if method == "auto":
            method = "enumerate" if len(self) <= ENUMERATION_BOUND else "parity"
        if method == "enumerate":
            arr = self.words_array()
            w = bulk.weights(arr, self.space.n, self.space.s, metric)
            return int(w[1:].min())
        if method == "parity":
            if metric != "nrt":
                raise ValueError("parity-check method only computes the NRT weight")
            return parity_nrt_weight(self.parity_check())
        raise ValueError(f"unknown method {method!r}")

    def dual(self) -> "LinearCode":
        """Orthogonal complement under the reversed inner product."""
        space = self.space
        plain_null = nullspace(space.gf, self.basis, space.dim)
        rows = [_block_reverse(r, space.n, space.s) for r in plain_null]
        return LinearCode(space, rows)

    def parity_check(self) -> "ParityCheck":
        """Check matrix H with C = {w : sum_j H_j row_j(w)^T = 0}."""
        space = self.space
        rows = nullspace(space.gf, self.basis, space.dim)
        if not rows:
            raise ValueError("whole space has an empty check matrix")
        return ParityCheck(space, rows)


def is_mds(code: LinearCode) -> bool:
    """Weight meets the Singleton-type bound ns - k + 1."""
    return code.min_weight("nrt") == code.space.dim - code.k + 1


def code_from_parity_check(check: "ParityCheck") -> LinearCode:
    space = check.space
    return LinearCode(space, nullspace(space.gf, check.rows, space.dim))


class ParityCheck:
    """Block row (H_1, ..., H_n) of k' x s matrices over F_q, of rank k',
    cutting out the code of words w with sum_j H_j row_j(w)^T = 0."""

    def __init__(self, space: Space, rows):
        self.space = space
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows:
            raise ValueError("need rank >= 1")
        if any(len(r) != space.dim for r in self.rows):
            raise ValueError("check row length mismatch")
        if rank(space.gf, self.rows) != len(self.rows):
            raise ValueError("check rows are dependent")

    def block_column(self, j: int, i: int) -> tuple[int, ...]:
        """Column i (0-based) of block H_j, a vector of length k'."""
        return tuple(row[j * self.space.s + i] for row in self.rows)


def parity_nrt_weight(check: ParityCheck) -> int:
    """NRT weight of the code of `check`, found as the smallest total
    d_1 + ... + d_n over nonzero prefix profiles whose selected columns
    (first d_j of each block) are linearly dependent."""
    from .geometry import bounded_compositions

    space = check.space
    gf = space.gf
    n, s = space.n, space.s
    for total in range(1, space.dim + 1):
        for d_vec in bounded_compositions(total, n, s):
            cols = []
            for j, d in enumerate(d_vec):
                for i in range(d):
                    cols.append(check.block_column(j, i))
            if rank(gf, cols) < len(cols):
                return total
    raise ValueError("zero code has no nonzero word")


# --- enumerators and duality identities ---

def corner_box_counts(dist: Distribution) -> dict[tuple[int, ...], int]:
    """Counts of points in every corner box (side exponents A, anchor 0),
    i.e. the coefficient table of the box enumerator phi(D).  There are
    (s+1)^n of them, at most ENUMERATION_BOUND."""
    import numpy as np
    from itertools import product

    from .geometry import _cumulative_counts

    space = dist.space
    n, s = space.n, space.s
    if (s + 1) ** n > ENUMERATION_BOUND:
        raise ValueError(f"box enumerator has (s+1)^n = {(s + 1) ** n} "
                         f"coefficients, above the bound {ENUMERATION_BOUND}")
    rw = ((dist.array() != 0) * np.arange(1, s + 1)).max(axis=2)
    # points with row weights <= b lie in the corner box with a_j = s - b_j
    cum = _cumulative_counts(rw.T, (s + 1,) * n)
    return {a_vec: int(cum[tuple(s - a for a in a_vec)])
            for a_vec in product(range(s + 1), repeat=n)}


def weight_enumerator(dist: Distribution) -> list[int]:
    """Coefficients (w_0, ..., w_ns) of the weight enumerator of a linear
    distribution, anchored at the origin."""
    from .spectra import distance_spectrum

    return distance_spectrum(dist, dist.space.zero())


def box_duality_ok(dist: Distribution, dual_dist: Distribution) -> bool:
    """Corner-count duality: q^(sum A) #(D in box_A) = N #(D* in box_A*),
    equivalently the box-enumerator functional equation after clearing
    denominators."""
    from itertools import product

    space = dist.space
    q, n, s = space.q, space.n, space.s
    counts = corner_box_counts(dist)
    dual_counts = corner_box_counts(dual_dist)
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
    phi = corner_box_counts(dist)
    # z^s * phi(1/z) has coefficient phi[a] at degree s - a
    lifted = [0] * (s + 2)
    for (a,), c in phi.items():
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


@dataclass
class CharacterReport:
    ok: bool
    checked: int
    failure: str | None = None

    def __bool__(self):
        return self.ok


def character_sum_report(code: LinearCode) -> CharacterReport:
    """Verify the additive character sum dichotomy over the code: summing
    the p-th root of unity with exponent Tr<Y, X> over X gives #C when Y
    is in the dual and 0 otherwise, tracked as exact exponent histograms.
    Also checks the corner-box count duality against the dual code.

    Checks every Y, so the ambient space may hold at most 4096 words.
    """
    import numpy as np
    from . import bulk

    space = code.space
    gf = space.gf
    p, q = gf.p, gf.q
    if q ** space.dim > 4096:
        raise ValueError("character sums need q^(ns) <= 4096")
    count = len(code)
    arr = code.words_array()
    dual = code.dual()
    dual_keys = set(int(v) for v in bulk.encode(dual.words_array(), q))
    candidates = bulk.span_array(gf, LinearCode.whole_space(space).basis, space.dim)

    # pairing positions: coordinate (j, i) pairs with (j, s-1-i)
    partner = np.array([j * space.s + (space.s - 1 - i)
                        for j in range(space.n) for i in range(space.s)])
    add_t, mul_t, tr_t = gf.add_table, gf.mul_table, gf.trace_table
    inner = np.zeros((candidates.shape[0], arr.shape[0]), dtype=np.int16)
    for pos in range(space.dim):
        prod = mul_t[candidates[:, partner[pos]][:, None], arr[:, pos][None, :]]
        inner = add_t[inner, prod]
    exps = tr_t[inner]

    y_keys = bulk.encode(candidates, q)
    in_dual = np.array([int(k) in dual_keys for k in y_keys])
    residue_counts = np.stack([(exps == c).sum(axis=1) for c in range(p)])
    sum_is_full = residue_counts[0] == count
    sum_is_zero = ((residue_counts == count // p).all(axis=0)
                   if count % p == 0 else np.zeros(len(y_keys), dtype=bool))
    ok_rows = np.where(in_dual, sum_is_full, sum_is_zero & ~sum_is_full)
    # membership and a full character sum must agree in both directions
    ok_rows &= sum_is_full == in_dual
    checked = int(ok_rows.sum())
    if not ok_rows.all():
        bad = int(y_keys[int(np.argmin(ok_rows))])
        return CharacterReport(False, checked,
                               f"character sum broke at Y key {bad}")

    if not box_duality_ok(code.distribution(), dual.distribution()):
        return CharacterReport(False, checked, "box-count duality failed")
    return CharacterReport(True, checked)


# --- code file format ---

def write_code(stream, code: LinearCode, comments=()) -> None:
    """Header "q n s k" (field line first when e > 1), then k basis rows
    of n*s labels, each coordinate block most significant digit first."""
    space = code.space
    for c in comments:
        stream.write(f"# {c}\n")
    if space.gf.e > 1:
        stream.write(space.gf.describe() + "\n")
    stream.write(f"{space.q} {space.n} {space.s} {code.k}\n")
    for row in code.basis:
        word = space.unflatten(row)
        labels = [str(v) for r in word for v in space.eta_row(r)]
        stream.write(" ".join(labels) + "\n")


def read_code(stream) -> LinearCode:
    from .words import PointFileError, _content_lines, _read_header

    lines = _content_lines(stream)
    field, n, s, k, lineno = _read_header(lines, "code")
    space = Space(field, n, s)
    rows = []
    for _ in range(k):
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise PointFileError("fewer rows than the header promised", lineno) from None
        labels = text.split()
        if len(labels) != space.dim:
            raise PointFileError(f"expected {space.dim} labels", lineno)
        try:
            vals = [int(t) for t in labels]
        except ValueError:
            raise PointFileError("labels must be integers", lineno) from None
        if any(not 0 <= v < space.q for v in vals):
            raise PointFileError("label out of range", lineno)
        word = tuple(tuple(reversed(vals[j * s:(j + 1) * s])) for j in range(n))
        rows.append(space.flatten(word))
    code = LinearCode(space, rows)
    if code.k != k:
        raise PointFileError("basis rows are linearly dependent", lineno)
    return code
