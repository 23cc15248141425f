"""Linear codes in Mat_{n,s}(F_q): reduced-row-echelon bases, duality under
the reversed inner product, minimum weights, check matrices (the codes
their rows span), box and weight enumerators, and character-sum
verification.

Codes are stored as RREF bases over the flattened n*s coordinates (row
major), which makes canonical comparisons and double duals bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GF
from .words import Distribution, Space, exponent

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
    """A basis of {x : rows . x = 0} under the plain dot product: one row
    per free column of rref(rows), 1 there and 0 at the other free
    columns, so independent but not reduced (`LinearCode` reduces it)."""
    reduced = rref(gf, rows)
    pivots = [row.index(1) for row in reduced]  # a row's first 1 is its pivot
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * width
        vec[fc] = 1
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = gf.neg(prow[fc])
        basis.append(vec)
    return basis


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
        rows = [[int(v) for v in r] for r in basis_rows]
        if any(len(r) != space.dim for r in rows):
            raise ValueError("basis row length mismatch")
        self.basis = tuple(tuple(r) for r in rref(space.gf, rows))

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

        if self.space.q ** self.k > ENUMERATION_BOUND:
            raise ValueError("code too large to enumerate")
        return bulk.span_array(self.space.gf, self.basis, self.space.dim)

    def words(self):
        return [self.space.unflatten(tuple(int(v) for v in row))
                for row in self.words_array()]

    def distribution(self) -> Distribution:
        """The codewords as a point set, in `words_array` order, with the
        basis as its generator (see `Distribution.span`)."""
        if self.space.q ** self.k > ENUMERATION_BOUND:
            raise ValueError("code too large to enumerate")
        return Distribution.span(self.space, self.basis)

    def min_weight(self, metric: str = "nrt", method: str = "auto") -> int:
        """Minimum weight over the nonzero codewords.

        Within the enumeration bound the NRT weight, when the (s+1)^n
        prefix profiles are no more than the q^k codewords, is read from
        their ranks (`_profile_ranks`): the corner box of side exponents
        a holds the q^(k - rank(a)) codewords with row weights at most
        s - a_j, so it holds a nonzero one iff rank(a) < k, and the
        weight is ns - max{a_1 + ... + a_n : rank(a) < k}.  Otherwise,
        and for the Hamming weight, it is the first nonzero entry after
        w_0 of the weight histogram counted over the codewords in blocks
        (`bulk.span_weight_histogram`).  Beyond the enumeration bound the
        NRT weight comes from the check matrix: `parity_nrt_weight` walks
        the tree of prefix profiles at total k' = rank(H) first, then
        binary-searches [1, k'] for the smallest dependent total.
        """
        if metric not in ("nrt", "hamming"):
            raise ValueError(f"unknown metric {metric!r}")
        if method not in ("auto", "enumerate", "parity"):
            raise ValueError(f"unknown method {method!r}")
        if method == "parity" and metric != "nrt":
            raise ValueError("parity-check method only computes the NRT weight")
        if self.k == 0:
            raise ValueError("zero code has no nonzero word")
        if self.k == self.space.dim:
            return 1
        space, size = self.space, self.space.q ** self.k  # len() stops at 2^63
        if method == "auto":
            method = "enumerate" if size <= ENUMERATION_BOUND else "parity"
        if method == "parity":
            return parity_nrt_weight(self.parity_check())
        if size > ENUMERATION_BOUND:
            raise ValueError("code too large to enumerate")
        if metric == "nrt" and (space.s + 1) ** space.n <= size:
            totals = [0]  # a_1 + ... + a_n, in the C order of the ranks
            for _ in range(space.n):
                totals = [t + a for t in totals for a in range(space.s + 1)]
            ranks = _profile_ranks(space, self.basis)
            return space.dim - max(t for t, r in zip(totals, ranks) if r < self.k)
        import numpy as np
        from . import bulk

        hist = bulk.span_weight_histogram(space.gf, self.basis, space.n,
                                          space.s, metric)
        # the basis is independent, so w_0 = 1 counts the zero word only
        return int(np.flatnonzero(hist[1:])[0]) + 1

    def dual(self) -> "LinearCode":
        """Orthogonal complement under the reversed inner product."""
        space = self.space
        plain_null = nullspace(space.gf, self.basis, space.dim)
        rows = [_block_reverse(r, space.n, space.s) for r in plain_null]
        return LinearCode(space, rows)

    def parity_check(self) -> "LinearCode":
        """The code H whose basis rows, as the block row (H_1, ..., H_n) of
        k' x s matrices, cut out C = {w : sum_j H_j row_j(w)^T = 0}: the
        complement of C under the plain dot product, so that
        C = H.parity_check()."""
        space = self.space
        return LinearCode(space, nullspace(space.gf, self.basis, space.dim))


def is_mds(code: LinearCode) -> bool:
    """Weight meets the Singleton-type bound ns - k + 1.  For 0 < k < ns
    one walk over the basis decides it, `span_is_mds`, at every size;
    the zero code has no weight (ValueError) and the whole space is MDS."""
    space = code.space
    if code.k in (0, space.dim):
        return code.min_weight("nrt") == space.dim - code.k + 1
    return span_is_mds(space, code.basis)


def span_is_mds(space: Space, rows) -> bool:
    """Whether the k flat `rows` span an MDS code of dimension k, which
    by the paper's equivalence makes their q^k combinations an optimum
    distribution: every k x k minor on the top a_j digits of each
    coordinate, for a_1 + ... + a_n = k and a_j <= s, is invertible
    (Niederreiter's linear-independence criterion).  Reversing each
    block puts the top digits first, so these minors are the prefix
    profiles of total k, and one `_dependent_profile` walk decides them
    all.  No minor exists for k > ns, and k = 0 is trivially optimum."""
    rows = [[int(v) for v in r] for r in rows]
    if any(len(r) != space.dim for r in rows):
        raise ValueError("row length mismatch")
    if len(rows) > space.dim:
        return False
    top_first = [_block_reverse(r, space.n, space.s) for r in rows]
    return not rows or not _dependent_profile(space, top_first, len(rows))


def own_span(dist: Distribution) -> Distribution | None:
    """The points, keeping their array, as the `Distribution.span` of an
    RREF basis B if they are the q^r words of span(B) once each, else
    None.  The pivot columns of B are an information set: a point lies in
    span(B) iff it is word `key` of `bulk.span_array(B)`, key the Horner
    value of its pivot digits, and the points are span(B) once each iff
    moreover the keys are a permutation.  B starts from the rows
    j * 1000003 mod N, distinct as that prime is prime to N = q^r; a
    point outside span(B) joins B, at most r + 1 times, so the sample
    sets the speed only."""
    import numpy as np
    from . import bulk

    space, count = dist.space, len(dist)
    r = exponent(space.q, count)
    if space.q ** r != count or r > space.dim:
        return None
    flat = dist.array().reshape(count, space.dim)
    sample = np.arange(min(count, 4 * r + 16)) * 1000003 % count
    basis = rref(space.gf, flat[sample].tolist())
    while len(basis) <= r:
        keys = np.zeros(count, dtype=np.int64)
        for row in reversed(basis):
            keys *= space.q
            keys += flat[:, row.index(1)]  # the pivot is a row's first 1
        outside = (bulk.span_array(space.gf, basis, space.dim)[keys] != flat).any(axis=1)
        if not outside.any():
            # N keys below q^rank <= N are a permutation iff none is missed
            if not np.bincount(keys, minlength=count).all():
                return None
            proven = Distribution.span(space, basis)
            proven._array = dist.array()
            return proven
        basis = rref(space.gf, basis + [flat[outside.argmax()].tolist()])
    return None


def _dependent_profile(space: Space, rows, total: int) -> bool:
    """Whether some prefix profile (d_1, ..., d_n), 0 <= d_j <= s, of total
    1 <= d_1 + ... + d_n <= `total` has linearly dependent columns, the
    first d_j of each block of the flat `rows`.  The rows are a check
    matrix H for `parity_nrt_weight`, and a block-reversed generator for
    `span_is_mds`.  The walk goes depth first through the profile tree: a
    node adds one column, the next of its last block or the first of a
    later block, so every profile is visited once; it reduces that column
    against the echelon rows of its ancestors' columns, and the walk ends
    at a column that reduces to 0.  It recurses only across blocks."""
    n, s = space.n, space.s
    add, mul, neg, inv = (space.gf.add_lookup, space.gf.mul_lookup,
                          space.gf.neg_lookup, space.gf.inv_lookup)
    columns = list(zip(*rows))
    blocks = [columns[j * s:(j + 1) * s] for j in range(n)]
    echelon = []  # (pivot, row) with row[pivot] = 1, zero at earlier pivots

    def dependent(first: int, left: int) -> bool:
        # whether adding at most `left` columns of blocks first, ... makes
        # the current profile dependent: block j's prefixes grow to the
        # deepest, then later blocks extend them from there back up
        for j in range(first, n):
            depth = 0  # the columns of block j on the echelon stack
            while depth < s:
                vec = blocks[j][depth]
                for pivot, row in echelon:
                    c = vec[pivot]
                    if c:
                        times = mul[neg[c]]
                        vec = [add[a][times[b]] for a, b in zip(vec, row)]
                for pivot, v in enumerate(vec):
                    if v:
                        break
                else:
                    return True
                if depth + 1 == left:
                    break
                scale = mul[inv[vec[pivot]]]
                echelon.append((pivot, [scale[v] for v in vec]))
                depth += 1
            for d in range(depth, 0, -1):
                if dependent(j + 1, left - d):
                    return True
                echelon.pop()
        return False

    return dependent(0, total)


def _profile_ranks(space: Space, rows) -> list[int]:
    """Rank of the columns of every prefix profile (d_1, ..., d_n),
    0 <= d_j <= s, of the block-reversed flat `rows`, as a flat list in
    C order over the (s+1)^n profiles.  The walk goes over the profile
    tree of `_dependent_profile`, where a node adds the next column of
    its last block or the first of a later block, and reduces that
    column against the echelon rows of its ancestors' columns.  Once the
    rank reaches k = len(rows), every profile that extends the node in
    its last block and the later ones has rank k; they form one
    contiguous run of the table, filled by one slice assignment, and the
    walk does not descend into them."""
    n, s, k = space.n, space.s, len(rows)
    add, mul, neg, inv = (space.gf.add_lookup, space.gf.mul_lookup,
                          space.gf.neg_lookup, space.gf.inv_lookup)
    columns = list(zip(*(_block_reverse(r, n, s) for r in rows)))
    blocks = [columns[j * s:(j + 1) * s] for j in range(n)]
    stride = [(s + 1) ** (n - 1 - j) for j in range(n)]
    ranks = [0] * (s + 1) ** n
    echelon = []  # (pivot, row) with row[pivot] = 1, zero at earlier pivots

    def walk(first: int, at: int) -> None:
        # the profiles that extend the one at flat index `at`, whose
        # depths are 0 from block `first` on and whose rank is below k,
        # in blocks first, first + 1, ...  The loop over i goes down the
        # columns of block j and the recursion adds later blocks, so it
        # is at most n deep however long the blocks are.
        for j in range(first, n):
            entry_rank = len(echelon)
            for i in range(s):
                vec = blocks[j][i]
                for pivot, row in echelon:
                    c = vec[pivot]
                    if c:
                        times = mul[neg[c]]
                        vec = [add[a][times[b]] for a, b in zip(vec, row)]
                for pivot, v in enumerate(vec):
                    if v:
                        scale = mul[inv[v]]
                        echelon.append((pivot, [scale[x] for x in vec]))
                        break
                node = at + stride[j] * (i + 1)
                if len(echelon) == k:
                    # the profiles with this prefix and d_j > i
                    end = at + stride[j] * (s + 1)
                    ranks[node:end] = [k] * (end - node)
                    break
                ranks[node] = len(echelon)
                if j + 1 < n:
                    walk(j + 1, node)
            del echelon[entry_rank:]

    if k:
        walk(0, 0)
    return ranks


def span_corner_counts(space: Space, rows):
    """(s+1)^n int table whose entry a is the number of combinations of
    the flat `rows` (all q^k, with multiplicity, as `Distribution.span`
    counts them) that lie in the corner box of side exponents a: those
    whose row weights are at most s - a_j.  They are the combinations
    orthogonal to the columns of prefix profile a of the block-reversed
    rows, q^(k - rank) of them.  int64 while q^k < 2^63, else Python
    ints."""
    import numpy as np

    q, k = space.q, len(rows)
    powers = np.array([q ** e for e in range(k + 1)],
                      dtype=np.int64 if q ** k < 1 << 63 else object)
    ranks = np.array(_profile_ranks(space, rows), dtype=np.intp)
    return powers[k - ranks].reshape((space.s + 1,) * space.n)


def span_nrt_histogram(space: Space, rows):
    """Counts (w_0, ..., w_ns) of the NRT weights of all q^k combinations
    of the flat `rows`, from their corner counts: read with every axis
    reversed, the corner table counts the combinations with row weights
    at most b; its difference along each axis counts those with row
    weights exactly b, and these summed by b_1 + ... + b_n give w."""
    import numpy as np

    n, s = space.n, space.s
    exact = span_corner_counts(space, rows)[(slice(None, None, -1),) * n]
    totals = np.zeros(1, dtype=np.intp)
    for axis in range(n):
        # np.diff(exact, axis=axis, prepend=0), in place
        lead = (slice(None),) * axis
        exact[lead + (slice(1, None),)] -= exact[lead + (slice(None, -1),)]
        totals = np.add.outer(totals, np.arange(s + 1)).ravel()
    hist = np.zeros(n * s + 1, dtype=exact.dtype)
    np.add.at(hist, totals, exact.ravel())
    return hist


def parity_nrt_weight(check: LinearCode) -> int:
    """NRT weight of the code that the basis rows H of `check` cut out
    (`LinearCode.parity_check`): the smallest total d_1 + ... + d_n over
    prefix profiles (0 <= d_j <= s) whose columns, the first d_j of each
    block H_j, are linearly dependent.

    A dependent profile of total t extends to one of total t + 1, and any
    k' + 1 columns are dependent (the Singleton bound).  So total
    k' = check.k is checked first: if every profile of it is independent,
    the weight is k' + 1, the MDS case.  Otherwise a binary search over
    [1, k'] finds the smallest dependent total, one `_dependent_profile`
    walk per step."""
    space, rows, rank_h = check.space, check.basis, check.k
    if rank_h == 0:
        raise ValueError("need a check matrix of rank >= 1")
    if rank_h == space.dim:
        raise ValueError("zero code has no nonzero word")
    if not _dependent_profile(space, rows, rank_h):
        return rank_h + 1
    low, high = 1, rank_h  # some profile of total `high` is dependent
    while low < high:
        mid = (low + high) // 2
        if _dependent_profile(space, rows, mid):
            high = mid
        else:
            low = mid + 1
    return high


# --- enumerators and duality identities ---

def corner_box_counts(dist: Distribution) -> dict[tuple[int, ...], int]:
    """Counts of points in every corner box (side exponents A, anchor 0),
    i.e. the coefficient table of the box enumerator phi(D).  There are
    (s+1)^n of them, at most ENUMERATION_BOUND.  A set built as a span
    (`Distribution.span`) with no more boxes than its q^k points reads
    them from the ranks of its k generator rows (`span_corner_counts`),
    without its array; any other set counts its points."""
    import numpy as np
    from itertools import product

    from .geometry import _cumulative_counts

    space = dist.space
    n, s = space.n, space.s
    if (s + 1) ** n > ENUMERATION_BOUND:
        raise ValueError(f"box enumerator has (s+1)^n = {(s + 1) ** n} "
                         f"coefficients, above the bound {ENUMERATION_BOUND}")
    rows = dist._generator
    if rows is not None and (s + 1) ** n <= space.q ** len(rows):
        counts = span_corner_counts(space, rows).ravel().tolist()
        return dict(zip(product(range(s + 1), repeat=n), counts))
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
    count = q ** code.k
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
        labels = _block_reverse(row, space.n, space.s)
        stream.write(" ".join(map(str, labels)) + "\n")


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
        rows.append(_block_reverse(vals, n, s))
    code = LinearCode(space, rows)
    if code.k != k:
        raise PointFileError("basis rows are linearly dependent", lineno)
    return code
