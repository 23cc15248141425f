"""Elementary boxes, net / optimum-distribution verification, and exact
star discrepancy.

Box membership is decided purely on digits: a point lies in the box with
side exponents A and positions M iff its leading a_j radix digits agree
with those of m_j / q^(a_j) in every coordinate.  The net, optimum and
full-count checks share one box count, `_box_report`: side-exponent
vectors A in colex order, positions M in mixed-radix order, so failure
reports are deterministic.  A span's optimum check takes the rank
certificate `codes.span_is_mds` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codes import span_is_mds
from .words import Distribution, exponent

DISCREPANCY_CELL_BOUND = 1 << 20


@dataclass(frozen=True)
class ElementaryBox:
    """Anchored q-adic box: coordinate j spans [m_j/q^a_j, (m_j+1)/q^a_j)."""

    a: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.m):
            raise ValueError("side and position vectors differ in length")
        for aj, mj in zip(self.a, self.m):
            if aj < 0 or mj < 0:
                raise ValueError("negative box parameters")

    def volume(self, q: int) -> Fraction:
        return Fraction(1, q ** sum(self.a))


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


@dataclass
class BoxReport:
    """Outcome of a box-count sweep; `box` is the first offending box."""

    ok: bool
    box: ElementaryBox | None = None
    count: int | None = None
    expected: int | None = None

    def __bool__(self):
        return self.ok


def _cumulative_counts(index, shape):
    """For every cell of an array of `shape`, the number of points whose
    cell (one index array per axis in `index`) is at or below it in every
    coordinate."""
    import numpy as np

    counts = np.bincount(np.ravel_multi_index(index, shape),
                         minlength=math.prod(shape)).reshape(shape)
    for axis in range(len(shape)):
        np.cumsum(counts, axis=axis, out=counts)
    return counts


def _box_report(dist: Distribution, total: int, bound: int) -> BoxReport:
    """Check that every elementary box whose side exponents sum to `total`,
    each at most `bound`, holds len(dist) / q^total points; the witness is
    the first failing box, in key order, of the first failing family in
    `bounded_compositions` order, the order of the walk: it fixes the last
    coordinate's exponent outermost.  A point's key in family a is
    m_1 + q^a_1 (m_2 + q^a_2 (m_3 + ...)); one more unit of a_j takes the
    key times q plus the next digit column of coordinate j (zero past the
    stored digits).  The walk loops down a coordinate and recurses only
    across coordinates, so it holds at most n key arrays.  Each family is
    one bincount of q^total <= len(dist) cells."""
    import numpy as np

    q, n, s = dist.space.q, dist.space.n, dist.space.s
    if q ** total > 1 << 63:
        raise ValueError("box family too large for 64-bit box indices")
    eta = dist.eta_array()
    per_box = len(dist) // q ** total
    a_vec = [0] * n

    def walk(j: int, keys, left: int) -> BoxReport:
        # the families with a_vec[j + 1:] fixed and sum(a_vec[:j + 1]) =
        # left; `keys` are the points' keys over coordinates j + 1, ...
        keys = keys.copy()
        for a in range(min(left, bound) + 1):
            if a:
                keys *= q
                if a <= s:
                    keys += eta[:, j, a - 1]
            a_vec[j] = a
            if j and left - a <= j * bound:
                report = walk(j - 1, keys, left - a)
                if not report:
                    return report
            elif not j and a == left:
                counts = np.bincount(keys, minlength=q ** total)
                bad = np.flatnonzero(counts != per_box)
                if bad.size:
                    m_vec = np.unravel_index(bad[0], [q ** a_j for a_j in reversed(a_vec)])
                    return BoxReport(False, ElementaryBox(
                        tuple(a_vec), tuple(int(m) for m in reversed(m_vec))),
                        int(counts[bad[0]]), per_box)
        return BoxReport(True)

    return walk(n - 1, np.zeros(len(dist), dtype=np.int64), total)


def net_report(dist: Distribution, delta: int) -> BoxReport:
    """Check the defining property of a (delta, s, n)-net in base q: every
    elementary box of volume q^(delta-s) holds exactly q^delta points.
    The net parameter s is read off from the cardinality q^s."""
    q = dist.space.q
    s_net = exponent(q, len(dist))
    if q ** s_net != len(dist):
        raise ValueError("not q^s points")
    if not 0 <= delta <= s_net:
        raise ValueError("deficiency out of range")
    return _box_report(dist, s_net - delta, s_net - delta)


def is_net(dist: Distribution, delta: int) -> bool:
    return net_report(dist, delta).ok


def optimum_report(dist: Distribution, k: int) -> BoxReport:
    """Check that every elementary box with side exponents summing to k
    holds exactly one of the q^k points; at a coarser digit depth d, check
    `dist.project(d)`.  A span of k rows (`Distribution.span`, or a file
    `codes.own_span` proved one) holds q^len(rows) points, however many,
    and is first decided by the rank certificate `codes.span_is_mds` on
    those rows.  Its "no", and any other set, goes to the box count
    `_box_report`."""
    space, rows = dist.space, dist._generator
    count = space.q ** len(rows) if rows is not None else len(dist)
    if count != space.q ** k:
        raise ValueError("not q^k points")
    if not 0 <= k <= space.dim:
        raise ValueError("k out of range")
    if rows is not None and span_is_mds(space, rows):
        return BoxReport(True)
    return _box_report(dist, k, space.s)


def is_optimum(dist: Distribution, k: int) -> bool:
    return optimum_report(dist, k).ok


def check_counts(dist: Distribution, k: int) -> BoxReport:
    """Full audit of an optimum distribution: every box with side sum
    t <= k holds exactly q^(k - t) points, so every other box holds at
    most one.

    Only side sums up to k are walked: a box with sum above k (each
    a_j <= s) lies inside a box with sum exactly k, which holds one
    point, so the at-most-one families cannot fail once these pass."""
    space = dist.space
    if len(dist) != space.q ** k:
        raise ValueError("not q^k points")
    for total in range(min(k, space.dim) + 1):
        report = _box_report(dist, total, space.s)
        if not report:
            return report
    return BoxReport(True)


def net_from_optimum(dist: Distribution, k: int) -> tuple[int, int, int]:
    """Net parameters (delta, s, n) = (k - s, k, n) certified for an
    optimum distribution with s <= k, re-verified by box enumeration."""
    s = dist.space.s
    if k < s:
        raise ValueError("k < s: rescale to depth k instead")
    delta = k - s
    report = net_report(dist, delta)
    if not report.ok:
        raise ValueError(f"input is not a ({delta},{k},{dist.space.n})-net: "
                         f"box {report.box} holds {report.count}")
    return (delta, k, dist.space.n)


def base_reduce_net(dist: Distribution, delta: int):
    """Re-express a (delta, s, n)-net in base p^e in base p and verify the
    (e*delta + (e-1)(n-1), e*s, n)-net property there.

    Returns (base-p distribution, delta_p, report)."""
    e = dist.space.gf.e
    n = dist.space.n
    delta_p = e * delta + (e - 1) * (n - 1)
    reduced = dist.to_base_p()
    return reduced, delta_p, net_report(reduced, delta_p)


def star_discrepancy(dist: Distribution) -> Fraction:
    """Exact star discrepancy sup |count/N - volume| over anchored boxes,
    as a Fraction.

    The supremum over the half-open boxes [0, y) is reached at the corners
    c of the grid of distinct point coordinates (and 1), by the count of
    points x < c there or by the count of x <= c in the limit from above.
    Ranking each coordinate's values, one cumulative histogram over the
    ranks gives the closed count x <= c at every corner, and the same
    array shifted one rank along every axis the open count x < c.
    Integer arithmetic only, in int64 while N q^(sn) < 2^63 and in Python
    integers above; grids of more than DISCREPANCY_CELL_BOUND cells are
    refused before allocating, as soon as the grid sizes of the axes
    ranked so far, times 2 for each axis still to rank, exceed it.
    """
    import numpy as np

    space = dist.space
    q, n, s = space.q, space.n, space.s
    count = len(dist)
    if count == 0:
        raise ValueError("empty distribution")
    unit = q ** (s * n)
    # every scaled count and volume below is at most count * unit
    dtype = np.int64 if count * unit < 1 << 63 else object
    eta = dist.eta_array()
    ranks, grids = [], []
    for j in range(n):
        # each point's coordinate j over q^s, by Horner's rule over its
        # digits (most significant first): int64 while q^s < 2^63, else
        # Python ints; its rank among the distinct values, in value order
        keys = np.zeros(count, dtype=np.int64 if q ** s < 1 << 63 else object)
        for i in range(s):
            keys *= q
            keys += eta[:, j, i]
        nums, inverse = np.unique(keys, return_inverse=True)
        ranks.append(inverse.reshape(-1))
        grids.append(np.append(nums.astype(dtype, copy=False), q ** s))  # then 1
        # an axis not ranked yet holds at least a value and 1
        if math.prod(map(len, grids)) * 2 ** (n - 1 - j) > DISCREPANCY_CELL_BOUND:
            raise ValueError("point set too large for the exact grid sweep; "
                             "sampled estimation is out of scope")
    shape = tuple(len(g) for g in grids)
    # closed and open counts times q^(sn) against count * volume * q^(sn)
    closed = _cumulative_counts(ranks, shape).astype(dtype, copy=False)
    closed *= unit
    opened = np.zeros_like(closed)
    opened[(slice(1, None),) * n] = closed[(slice(None, -1),) * n]
    volume = count * math.prod(np.ix_(*grids))
    closed -= volume
    np.subtract(volume, opened, out=opened)
    return Fraction(int(max(closed.max(), opened.max())), count * unit)
