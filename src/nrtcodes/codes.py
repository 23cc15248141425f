"""Linear codes in Mat_{n,s}(F_q): reduced-row-echelon bases, duality under
the reversed inner product and its MacWilliams identity, minimum weights
(a Hamming weight is the NRT weight at depth 1), check matrices (the codes
their rows span), the NRT weight counts of a code (`span_weight_counts`),
one rule (`_route`) that picks ranks, words or a check-matrix walk for
those counts, minimum weights and corner box counts, box and weight
enumerators, and character-sum verification.  Codes are stored as RREF
bases over the flattened n*s coordinates (row major), which makes
canonical comparisons and double duals bit-exact; a set with a generator
holds its code (`Distribution.code`), and a code its rank table."""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cache, cached_property
from operator import attrgetter, itemgetter, sub

from .gf import GF
from .spectra import weak_composition_count
from .words import Distribution, Space

ENUMERATION_BOUND = 1 << 21
NUMPY_START_NS = 80_000_000  # numpy's start, the price of a route that loads it


# a field's (add, mul, neg, inv) lookups, as `_push` takes them
_lookups = attrgetter("add_lookup", "mul_lookup", "neg_lookup", "inv_lookup")


def _push(lookups, echelon: list, vec) -> bool:
    """The one elimination step: reduce `vec` against the stack of
    (pivot, row, clear) entries `echelon`, each row nonzero at its pivot
    and 0 at the pivots stacked before it, and clear[c] the multiplier
    -c / row[pivot] that clears an entry c at the pivot.  If anything
    nonzero is left, push it unscaled and return True; else return
    False."""
    add, mul, neg, inv = lookups
    for pivot, row, clear in echelon:
        c = vec[pivot]
        if c:
            # vec + (-c / row[pivot]) * row
            times = mul[clear[c]]
            vec = [add[a][times[b]] for a, b in zip(vec, row)]
    for pivot, v in enumerate(vec):
        if v:
            echelon.append((pivot, vec, mul[neg[inv[v]]]))
            return True
    return False


def rref(gf: GF, rows) -> list[list[int]]:
    """Reduced row echelon form; returns only the nonzero rows, of Python
    ints.  The rows are pushed onto one echelon stack (`_push`), which
    sorted by pivot and each row scaled to a leading 1 is an echelon
    form; clearing each pivot column above its pivot, the latest pivot
    first, reduces it."""
    echelon, lookups = [], _lookups(gf)
    for r in rows:
        _push(lookups, echelon, r)
    echelon.sort()  # the pivots differ, so no two rows are compared
    add, mul, neg, inv = lookups
    pivots = [p for p, _, _ in echelon]
    out = []
    for pivot, row, _ in echelon:
        scale = mul[inv[row[pivot]]]
        out.append([scale[x] for x in row])
    for i in reversed(range(len(out))):
        for r in range(i):
            c = out[r][pivots[i]]
            if c:
                times = mul[neg[c]]
                out[r] = [add[a][times[b]] for a, b in zip(out[r], out[i])]
    return out


def rank(gf: GF, rows) -> int:
    return len(rref(gf, rows))


@cache
def _block_reverser(n: int, s: int):
    """The one gather that reverses each of the n blocks of s entries of
    a flat row, into a tuple."""
    if s == 1:  # nothing to reverse, and an itemgetter of one index returns no tuple
        return tuple
    return itemgetter(*[j * s + i for j in range(n) for i in reversed(range(s))])


class LinearCode:
    """A k-dimensional subspace of Mat_{n,s}(F_q), held as an RREF basis of
    flattened words, and its `_profile_ranks` table `_ranks`, walked once."""

    def __init__(self, space: Space, basis_rows):
        self.space = space
        rows = [list(r) for r in basis_rows]
        if any(len(r) != space.dim for r in rows):
            raise ValueError("basis row length mismatch")
        # rref builds its rows from the field's lookups: Python ints
        self.basis = tuple(map(tuple, rref(space.gf, rows)))

    @classmethod
    def _reduced(cls, space: Space, basis) -> "LinearCode":
        """The code whose basis is `basis`, rows already in RREF over the
        flat coordinates of `space`, taken with no elimination."""
        code = cls.__new__(cls)
        code.space, code.basis = space, tuple(tuple(r) for r in basis)
        return code

    @classmethod
    def from_words(cls, space: Space, words) -> "LinearCode":
        return cls(space, [space.flatten(space.check_word(w)) for w in words])

    @classmethod
    def zero(cls, space: Space) -> "LinearCode":
        return cls._reduced(space, ())

    @classmethod
    def whole_space(cls, space: Space) -> "LinearCode":
        return cls._reduced(space, [[int(c == i) for c in range(space.dim)]
                                    for i in range(space.dim)])

    @property
    def k(self) -> int:
        return len(self.basis)

    @cached_property
    def _ranks(self) -> list[int]:
        return _profile_ranks(self.space, self.basis)

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
        return self.distribution().words()

    def distribution(self) -> Distribution:
        """The codewords as a point set, in `words_array` order: a lazy span
        of the basis, holding this code (see `Distribution`)."""
        if self.space.q ** self.k > ENUMERATION_BOUND:
            raise ValueError("code too large to enumerate")
        return Distribution(self.space, generator=self.basis)._holding(self)

    def min_weight(self, metric: str = "nrt", method: str = "auto") -> int:
        """Minimum weight over the nonzero codewords; a Hamming weight is
        the NRT weight at depth 1, of the flat basis in Mat_{ns,1}.  By the
        route `_route` picks, it is the first nonzero entry after w_0 of
        `span_weight_counts` of the code, or it comes from the complement
        rows (`_complement`), a check matrix: one `_dependent_profile` walk
        up to total ns - k finds the least dependent total of their prefix
        profiles, at depth 1 the least number of dependent columns.
        `method="parity"` always walks: given only a check code H, C's
        weight is `H.parity_check().min_weight(metric, method="parity")`."""
        if metric not in ("nrt", "hamming"):
            raise ValueError(f"unknown metric {metric!r}")
        if method not in ("auto", "parity"):
            raise ValueError(f"unknown method {method!r}")
        if self.k == 0:
            raise ValueError("zero code has no nonzero word")
        space = self.space if metric == "nrt" else Space(self.space.gf, self.space.dim, 1)
        if method == "parity" or _route(space, self.k, weight=True) == "walk":
            # any basis of the check has the same dependent columns
            return _dependent_profile(space, self._complement(), space.dim - self.k, 0)
        # an RREF of flat rows is one at depth 1 too
        counts = span_weight_counts(self._reduced(space, self.basis) if metric != "nrt" else self)
        # the basis is independent, so w_0 = 1 counts the zero word only
        return next(w for w in range(1, space.dim + 1) if counts[w])

    def _complement(self) -> list[list[int]]:
        """A basis of the plain complement {x : b . x = 0 for every basis
        row b}, read off the RREF basis with no elimination: each free
        column f gets the row with 1 at f, -b[f] at the pivot of each
        basis row b and 0 elsewhere.  Independent, as each row has its
        own free column, but not reduced."""
        dim, neg = self.space.dim, self.space.gf.neg_lookup
        pivots = {row.index(1): row for row in self.basis}  # a row's first 1 is its pivot
        rows = []
        for f in range(dim):
            if f not in pivots:
                vec = [0] * dim
                vec[f] = 1
                for pivot, row in pivots.items():
                    vec[pivot] = neg[row[f]]
                rows.append(vec)
        return rows

    def dual(self) -> "LinearCode":
        """Orthogonal complement under the reversed inner product: the
        plain complement with each block reversed."""
        space = self.space
        return LinearCode(space, map(_block_reverser(space.n, space.s), self._complement()))

    def parity_check(self) -> "LinearCode":
        """The code H whose basis rows, as the block row (H_1, ..., H_n) of
        k' x s matrices, cut out C = {w : sum_j H_j row_j(w)^T = 0}: the
        complement of C under the plain dot product, so that
        C = H.parity_check()."""
        return LinearCode(self.space, self._complement())


def _turned(rows) -> list:
    """The flat `rows` turned end to end, the last row first and each row
    reversed: each block reversed, its top digits first, and the blocks in
    reverse order, which changes no profile's total.  An RREF basis
    [I | A] turns to [A' | I], so a walk over its columns pushes the unit
    columns last, and no dense column pays a row operation per unit row
    pushed before it."""
    return [row[::-1] for row in reversed(rows)]


def is_mds(code: LinearCode) -> bool:
    """Weight meets the Singleton-type bound ns - k + 1, so that the q^k
    codewords are an optimum distribution (the paper's equivalence).  For
    0 < k < ns one `_dependent_profile` walk decides it on the smaller
    side: at total k over the basis turned end to end (`_turned`), whose
    prefix profiles of total k are Niederreiter's k x k minors on the top
    digits, when 2k <= ns; else at total ns - k over the complement rows,
    as C is MDS iff its dual is.  The zero code has no weight (ValueError)
    and the whole space is MDS."""
    space, k = code.space, code.k
    if k in (0, space.dim):
        return code.min_weight("nrt") == space.dim - k + 1
    if 2 * k <= space.dim:
        rows, total = _turned(code.basis), k
    else:
        rows, total = code._complement(), space.dim - k
    return _dependent_profile(space, rows, total, total) > total


def in_span(gf: GF, rows, vec) -> bool:
    """Whether the flat `vec` is in the span of the flat `rows`: one `_push` pass of both."""
    echelon, lookups = [], _lookups(gf)
    for row in rows:
        _push(lookups, echelon, row)
    return not _push(lookups, echelon, vec)


def is_linear(dist: Distribution) -> bool:
    """Whether a set with a generator is linear: its offset lies in the
    span of the basis of its held code (`Distribution.code`)."""
    return dist.offset is None or in_span(dist.space.gf, dist.code().basis, dist.offset)


def own_span(dist: Distribution) -> Distribution | None:
    """The points with a generator B and an offset x0 if they are the
    q^r words of x0 + span(B) once each, else None.  A set whose
    generator rows are independent (as many as its held code's,
    `Distribution.code`), such as a lazy set `words.read_point_set` read,
    is returned as it is, before numpy is imported; any other keeps its
    array, gets its point 0 as offset x0, and is proved from its points
    minus x0 (`bulk.sub_anchor`, no copy when x0 is zero), which get an
    RREF basis B as generator and hold B's code.  The pivot columns of B
    are an information set: a point lies in span(B) iff it is word `key`
    of `bulk.span_array(B)`, key the Horner value of its pivot digits, and
    the points are span(B) once each iff moreover the keys are a
    permutation.  B starts from the rows q^0, ..., q^(r-1),
    the generator rows of a set in the colex order of `Distribution`,
    then the rows j * 1000003 mod N, distinct as that prime is prime to
    N = q^r; a point outside span(B) joins B, at most r + 1 times, so the
    sample sets the speed only."""
    space, rows = dist.space, dist.generator
    if rows is not None and dist.code().k == len(rows):
        return dist
    import numpy as np
    from . import bulk

    count, r = len(dist), dist.exponent()
    if r is None or r > space.dim:
        return None
    offset = dist.array()[0].ravel().tolist()
    flat = bulk.sub_anchor(space.gf, dist.array().reshape(count, space.dim), offset)
    stride = np.arange(min(count, 4 * r + 16)) * 1000003 % count
    sample = np.concatenate([space.q ** np.arange(r, dtype=np.int64), stride])
    basis = rref(space.gf, flat[sample].tolist())
    while len(basis) <= r:
        keys = np.zeros(count, dtype=np.int64)
        for row in reversed(basis):
            keys *= space.q
            keys += flat[:, row.index(1)]  # the pivot is a row's first 1
        # N keys below q^rank <= N are a permutation iff none is missed; at
        # rank r a missed key is a repeated point or one outside span(B),
        # and either is no coset, so a repeated point costs no span array
        permutation = np.bincount(keys, minlength=count).all()
        if len(basis) == r and not permutation:
            return None
        outside = (bulk.span_array(space.gf, basis, space.dim)[keys] != flat).any(axis=1)
        if not outside.any():
            return (Distribution(space, array=dist.array(), generator=basis, offset=offset)
                    ._holding(LinearCode._reduced(space, basis)) if permutation else None)
        basis = rref(space.gf, basis + [flat[outside.argmax()].tolist()])
    return None


def _dependent_profile(space: Space, rows, total: int, enough: int) -> int:
    """The least total d_1 + ... + d_n <= `total` <= ns of a prefix profile
    (0 <= d_j <= s) whose columns, the first d_j of each block of the
    flat `rows`, are linearly dependent, else `total` + 1; the walk ends
    early at a dependent total <= `enough`.  The rows are a check matrix
    [X | I] (any rows that span a check have its dependent columns) or a
    basis turned end to end (`_turned`), [A' | I]: the unit columns come
    last.  The walk goes depth first through the profile tree, recursing only
    across blocks: a node adds the next column of its last block or the
    first of a later block, and reduces it against the echelon rows of
    its ancestors' columns.  A column reducing to 0 sets the best total;
    only profiles below it come after.

    A first walk decides whether any profile of total <= `total` is
    dependent, and visits only profiles that extend to total `total`: a
    dependent profile extends to a dependent one there, as its columns
    stay dependent.  When it finds none, or `enough` >= `total`, that is
    the answer; else a second walk, with no such bound, looks for the
    least total below the one the first walk found."""
    n, s, lookups = space.n, space.s, _lookups(space.gf)
    columns = list(zip(*rows))
    blocks = [columns[j * s:(j + 1) * s] for j in range(n)]
    echelon = []  # the `_push` stack of the current profile's columns
    best, goal, stop_at = total + 1, total, total  # the first walk decides

    def walk(first: int) -> None:
        # extend the current profile, independent and on the echelon stack,
        # in blocks first, first + 1, ...: block j's prefixes grow to the
        # deepest, then later blocks extend them from there back up.  Blocks
        # j, ..., n - 1 add at most (n - j) s columns, so those from `stop`
        # on cannot bring the profile to `goal`.
        nonlocal best
        base = len(echelon)
        stop = n - (goal - base - 1) // s
        for j in range(first, stop if stop < n else n):
            if best <= base + 1 or best <= stop_at:
                return  # no profile left here is below `best`, or it is enough
            depth = 0  # the columns of block j on the echelon stack
            while depth < s:
                if not _push(lookups, echelon, blocks[j][depth]):
                    best = base + depth + 1
                    break
                depth += 1
                if base + depth + 1 == best:  # no extension is below it
                    break
            if j + 1 == n:  # no later block extends the profile
                del echelon[base:]
                return
            while depth and best > stop_at:
                walk(j + 1)
                echelon.pop()
                depth -= 1

    walk(0)
    if enough < best <= total:
        echelon.clear()
        goal, stop_at = 0, enough
        walk(0)
    return best


def _profile_ranks(space: Space, rows) -> list[int]:
    """Rank of the columns of every prefix profile (d_1, ..., d_n),
    0 <= d_j <= s, of the block-reversed flat `rows`, as a flat list in
    C order over the (s+1)^n profiles.  The walk goes over the profile
    tree of `_dependent_profile`, where a node adds the next column of
    its last block or the first of a later block, and reduces that
    column against the echelon rows of its ancestors' columns.  It walks
    the rows turned end to end (`_turned`), so that an RREF basis pushes
    its unit columns last: the walk's block j (from 0) is block n - 1 - j
    of the rows, whose depth has stride (s+1)^j in C order.  Once the
    rank reaches k = len(rows), every profile that extends the node in
    its last block and the later ones has rank k; those of one depth in
    the last block, the later blocks' depths free, are one strided slice
    of the table, filled by one slice assignment, and the walk does not
    descend into them."""
    n, s, k, lookups = space.n, space.s, len(rows), _lookups(space.gf)
    columns = list(zip(*_turned(rows)))
    blocks = [columns[j * s:(j + 1) * s] for j in range(n)]
    stride = [(s + 1) ** j for j in range(n + 1)]
    ranks = [0] * stride[n]
    echelon = []  # the `_push` stack of the current profile's columns

    def walk(first: int, at: int) -> None:
        # the profiles that extend the one at flat index `at`, whose
        # depths are 0 from block `first` on and whose rank is below k,
        # in blocks first, first + 1, ...  The loop over i goes down the
        # columns of block j and the recursion adds later blocks, so it
        # is at most n deep however long the blocks are.
        for j in range(first, n):
            entry_rank = len(echelon)
            for i in range(s):
                _push(lookups, echelon, blocks[j][i])
                node = at + stride[j] * (i + 1)
                if len(echelon) == k:
                    # the profiles with this prefix and d_j > i: the depths
                    # of blocks j + 1, ..., strides above stride[j], are free
                    run = [k] * (stride[n] // stride[j + 1])
                    for d in range(i + 1, s + 1):
                        ranks[at + stride[j] * d::stride[j + 1]] = run
                    break
                ranks[node] = len(echelon)
                if j + 1 < n:
                    walk(j + 1, node)
            del echelon[entry_rank:]

    if k:
        walk(0, 0)
    return ranks


def _profile_totals(space: Space) -> list[int]:
    """a_1 + ... + a_n of every prefix profile, in the C order of
    `_profile_ranks`."""
    totals = [0]
    for _ in range(space.n):
        totals = [t + a for t in totals for a in range(space.s + 1)]
    return totals


def duality_ok(code: LinearCode, dual: LinearCode) -> bool:
    """The generalized MacWilliams identity of C = `code` and C' = `dual`,
    for every n: q^k phi_C'(b) = q^(ns - |b|) phi_C(s - b) for every b in
    {0..s}^n, phi(a) = q^(k - rank(a)) the codewords in the corner box of
    side exponents a (`corner_box_counts`).  In the ranks of the prefix
    profiles it reads rank_C'(b) = |b| - k + rank_C(s - b), and profile
    s - b is the mirror of b in the C order of `_profile_ranks`, so one
    pass over the two held tables (`LinearCode._ranks`) decides it, with
    no words and no numpy; at b = (s, ..., s) it reads dim C' = ns - k.
    False when the spaces differ."""
    space, k = code.space, code.k
    if dual.space != space:
        return False
    return all(r == t - k + m for t, r, m in
               zip(_profile_totals(space), dual._ranks, reversed(code._ranks)))


def _route(space: Space, k: int, weight: bool = False) -> str:
    """The one route rule, from counts known before any work: how the
    NRT weight or corner box counts of a span of k flat rows, or with
    `weight` the least nonzero weight of a code of dimension k, are found.
    "ranks" reads the P = (s+1)^n prefix profiles (`_profile_ranks`),
    "words" counts the W = q^k words in blocks, and "walk" walks the
    complement rows (`_dependent_profile`).  The least price in ns wins:
    ranks 15 us + P (8 k^2 + 45 n); words 15 us + 10 us k + 3.5 W ns, plus
    NUMPY_START_NS while numpy is not loaded, as in every command on a
    code file or on a point file read as a lazy span; the walk at most
    4 us + 3.5 N (ns - k)^2, N the profiles of total up to ns - k, summed
    only while it can win.  These fit best-of-7 in-process times over 384
    random, MDS and sweep-grid spans, q <= 16 (2 vCPUs of an x86-64 host,
    Python 3.11, numpy 2.4).  No ranks above ENUMERATION_BOUND profiles, no
    words above as many words; with neither, a weight walks, a count fails."""
    n, s, dim = space.n, space.s, space.dim
    profiles, words, prices = (s + 1) ** n, space.q ** k, {}
    if profiles <= ENUMERATION_BOUND:
        prices["ranks"] = 15_000 + profiles * (8 * k * k + 45 * n)
    if words <= ENUMERATION_BOUND:
        prices["words"] = (15_000 + 10_000 * k + 3.5 * words * dim
                           + (0 if "numpy" in sys.modules else NUMPY_START_NS))
    if weight and not prices:
        return "walk"  # the only route: its count of profiles may be huge
    if weight:
        walk, best = 4_000, min(prices.values())
        # by increasing total, so that each count recurses one level
        for total in range(dim - k + 1):
            walk += 3.5 * weak_composition_count(n, total, s) * (dim - k) ** 2
            if walk >= best:
                break
        else:
            prices["walk"] = walk
    if not prices:
        raise ValueError(f"span too large to count: (s+1)^n = {profiles} profiles and "
                         f"q^k = {words} words, both above {ENUMERATION_BOUND}")
    return min(prices, key=prices.get)


def span_weight_counts(code: LinearCode) -> list[int]:
    """Counts (w_0, ..., w_ns) of the NRT weights of the q^k words of
    `code`, in Python ints, by the route `_route` picks: the words counted
    in blocks (`bulk.span_weight_histogram`), or the code's held ranks of
    the prefix profiles (`LinearCode._ranks`).  The corner box of side
    exponents a holds the q^(k - rank(a)) words with row weights at most
    s - a_j, orthogonal to the columns of profile a of the block-reversed
    basis.  Profile s - b is the mirror of b in the C order of
    `_profile_ranks`, so the mirrored corner counts count the words with
    row weights at most b; their difference along each axis counts those
    with row weights exactly b, summed by b_1 + ... + b_n into w."""
    space, k = code.space, code.k
    q, s = space.q, space.s
    if _route(space, k) == "words":
        from . import bulk

        return bulk.span_weight_histogram(space.gf, code.basis, space.n, s).tolist()
    counts = [q ** (k - r) for r in reversed(code._ranks)]
    for _ in range(space.n):
        # difference along the last axis while turning it to the front, one
        # slice per digit: n turns difference every axis and restore the order
        turned = counts[::s + 1]
        for d in range(1, s + 1):
            turned += map(sub, counts[d::s + 1], counts[d - 1::s + 1])
        counts = turned
    hist = [0] * (space.dim + 1)
    for t, c in zip(_profile_totals(space), counts):
        hist[t] += c
    return hist


# --- enumerators and character sums ---

def corner_box_counts(dist: Distribution) -> list[int]:
    """Counts of points in every corner box (side exponents a, anchor 0),
    the coefficients of the box enumerator phi(D), a flat list in the C
    order of `_profile_ranks` (a in `itertools.product` order), at most
    ENUMERATION_BOUND of them.  A linear set with a generator of k rows
    (`is_linear`) whose route (`_route`) is "ranks" reads them from its
    held code's ranks (`LinearCode._ranks`), box a holding the
    q^(k - rank(a)) combinations orthogonal to the columns of prefix
    profile a, in Python ints; any other set counts its points."""
    space = dist.space
    n, s = space.n, space.s
    if (s + 1) ** n > ENUMERATION_BOUND:
        raise ValueError(f"box enumerator has (s+1)^n = {(s + 1) ** n} "
                         f"coefficients, above the bound {ENUMERATION_BOUND}")
    rows = dist.generator
    if rows is not None and _route(space, len(rows)) == "ranks" and is_linear(dist):
        q, k = space.q, len(rows)
        return [q ** (k - r) for r in dist.code()._ranks]
    from . import bulk

    # points with row weights <= b lie in the corner box with a_j = s - b_j
    cum = bulk._cumulative_counts(bulk._row_weights(dist.array(), n, s).T, (s + 1,) * n)
    return cum[(slice(None, None, -1),) * n].ravel().tolist()


def weight_enumerator(dist: Distribution) -> list[int]:
    """Coefficients (w_0, ..., w_ns) of the weight enumerator of a linear
    distribution, anchored at the origin."""
    from .spectra import distance_spectrum

    return distance_spectrum(dist, dist.space.zero())


class CharacterReport(namedtuple("CharacterReport", "ok checked failure",
                                 defaults=(None,))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def character_sum_report(code: LinearCode) -> CharacterReport:
    """Verify the additive character sum dichotomy over the code: summing
    the p-th root of unity with exponent Tr<Y, X> over X gives #C when Y
    is in the dual and 0 otherwise, tracked as exact exponent histograms.
    Also checks the generalized MacWilliams identity against the dual
    code (`duality_ok`).

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

    if not duality_ok(code, dual):
        return CharacterReport(False, checked, "box-count duality failed")
    return CharacterReport(True, checked)


# --- code file format ---

def write_code(stream, code: LinearCode, comments=()) -> None:
    """Header "q n s k" (field line first when e > 1), then k basis rows
    of n*s labels, each coordinate block most significant digit first."""
    from .words import _write

    space = code.space
    reverse = _block_reverser(space.n, space.s)
    rows = (" ".join(map(str, reverse(row))) for row in code.basis)
    _write(stream, space, code.k, comments, ["".join(f"{r}\n" for r in rows).encode()])


def read_code(stream) -> LinearCode:
    from .words import PointFileError, _byte_lines, _ints, _read_header

    lines = _byte_lines(stream.read(), [])
    field, n, s, k, lineno = _read_header(lines, "code")
    space = Space(field, n, s)
    rows, reverse = [], _block_reverser(n, s)
    for _ in range(k):
        lineno, text = next(lines, (lineno, None))
        if text is None:
            raise PointFileError("fewer rows than the header promised", lineno)
        labels = text.split()
        if len(labels) != space.dim:
            raise PointFileError(f"expected {space.dim} labels", lineno)
        try:
            vals = _ints(labels)
        except ValueError:  # or more digits than int() reads
            raise PointFileError("labels must be integers", lineno) from None
        if any(not 0 <= v < space.q for v in vals):
            raise PointFileError("label out of range", lineno)
        rows.append(reverse(vals))
    code = LinearCode(space, rows)
    if code.k != k:
        raise PointFileError("basis rows are linearly dependent", lineno)
    return code
