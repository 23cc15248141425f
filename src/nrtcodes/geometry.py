"""Elementary boxes, net / optimum-distribution verification, and exact
star discrepancy.

Box membership is decided purely on digits: a point lies in the box with
side exponents A and positions M iff its leading a_j radix digits agree
with those of m_j / q^(a_j) in every coordinate.  The net, optimum and
full-count checks share one walk over the box families, `_box_report`:
side-exponent vectors A in colex order, positions M in mixed-radix order,
so failure reports are deterministic; a set with a generator (a span or
a coset) is walked on the ranks of its rows.  Its optimum check first
asks the one MDS certificate, `codes.is_mds`, of its generator's code.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .codes import LinearCode, _lookups, _push, in_span, is_mds
from .words import Distribution

DISCREPANCY_CELL_BOUND = 1 << 20


class ElementaryBox(namedtuple("ElementaryBox", "a m")):
    """Anchored q-adic box: coordinate j spans [m_j/q^a_j, (m_j+1)/q^a_j)."""

    __slots__ = ()

    def __new__(cls, a: tuple[int, ...], m: tuple[int, ...]):
        if len(a) != len(m):
            raise ValueError("side and position vectors differ in length")
        for aj, mj in zip(a, m):
            if aj < 0 or mj < 0:
                raise ValueError("negative box parameters")
        return super().__new__(cls, a, m)

    def volume(self, q: int) -> Fraction:
        from fractions import Fraction

        return Fraction(1, q ** sum(self.a))


class BoxReport(namedtuple("BoxReport", "ok box count expected",
                           defaults=(None, None, None))):
    """Outcome of a box-count sweep; `box` is the first offending box."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def _box_report(dist: Distribution, total: int, bound: int) -> BoxReport:
    """Check that every elementary box whose side exponents sum to `total`
    <= k, each at most `bound`, holds q^(k - total) of the q^k points; the
    witness is the first failing box, in key order, of the first failing
    family in colex order, last coordinate outermost: the walk's order.  It
    recurses only across coordinates, holding at most n states, each one
    extended by a digit column of coordinate j per unit of a_j: an array's
    keys m_1 + q^a_1 (m_2 + ...) times q plus the digits (0 past the stored
    ones), one bincount a family; or the `codes._push` stack of B's RREF
    columns for a set x0 + span(B), none past the stored digits, so no
    point is built.  A family reaches q^r boxes, r its columns' rank, of
    q^(k - r) points: all fail iff r < total, and box 0 is reached iff x0
    on those columns lies in their row space."""
    space, rows, a_vec = dist.space, dist.generator, [0] * dist.space.n
    q, n, s = space.q, space.n, space.s
    if rows is None:
        import numpy as np
        eta, copy = dist.eta_array(), np.copy
        per_box, state = len(dist) // q ** total, np.zeros(len(dist), dtype=np.int64)

        def extend(keys, j, a):
            keys *= q
            if a <= s:
                keys += eta[:, j, a - 1]

        def leaf(keys):
            counts = np.bincount(keys, minlength=q ** total)
            bad = np.flatnonzero(counts != per_box)
            if bad.size:
                m_vec = np.unravel_index(bad[0], [q ** a_j for a_j in reversed(a_vec)])
                return BoxReport(False, ElementaryBox(tuple(a_vec), tuple(
                    int(m) for m in reversed(m_vec))), int(counts[bad[0]]), per_box)
    else:
        basis, lookups, copy = LinearCode(space, rows).basis, _lookups(space.gf), list.copy
        columns = list(zip(*basis)) or [()] * space.dim
        per_box, state = q ** (len(rows) - total), []

        def extend(echelon, j, a):
            if a <= s:
                _push(lookups, echelon, columns[j * s + s - a])

        def leaf(echelon):
            if len(echelon) < total:
                cols = [j * s + s - a for j in range(n) for a in range(1, min(a_vec[j], s) + 1)]
                sub = [[r[c] for c in cols] for r in basis]
                reached = not dist.offset or in_span(space.gf, sub, [dist.offset[c] for c in cols])
                return BoxReport(False, ElementaryBox(tuple(a_vec), (0,) * n),
                                 q ** (len(rows) - len(echelon)) if reached else 0, per_box)

    def walk(j: int, state, left: int) -> BoxReport | None:
        # the first failure of the families ending in a_vec[j + 1:] whose a_0..a_j sum to left
        state = copy(state)
        for a in range(min(left, bound) + 1):
            if a:
                extend(state, j, a)
            a_vec[j] = a
            if j and left - a <= j * bound:
                report = walk(j - 1, state, left - a)
                if report is not None:
                    return report
            elif not j and a == left:
                return leaf(state)

    report = walk(n - 1, state, total)
    return BoxReport(True) if report is None else report


def net_report(dist: Distribution, delta: int) -> BoxReport:
    """Check the defining property of a (delta, s, n)-net in base q: every
    elementary box of volume q^(delta-s) holds exactly q^delta points.
    The net parameter s is read off from the cardinality q^s.  One
    `_box_report` walk over the families of total s - delta decides it,
    and gives the witness; a set with a generator is walked on ranks."""
    s_net = dist.exponent()
    if s_net is None:
        raise ValueError("not q^s points")
    if not 0 <= delta <= s_net:
        raise ValueError("deficiency out of range")
    return _box_report(dist, s_net - delta, s_net - delta)


def is_net(dist: Distribution, delta: int) -> bool:
    return net_report(dist, delta).ok


def optimum_report(dist: Distribution, k: int) -> BoxReport:
    """Check that every elementary box with side exponents summing to k
    holds exactly one of the q^k points; at a coarser digit depth d, check
    `dist.project(d)`.  A set with a generator of k rows (a built span,
    or a file `codes.own_span` proved a span or a coset of one) holds q^k
    points, however many; whatever its offset, it is optimum if the rows
    are independent and span an MDS code (`codes.is_mds`), and trivially
    if there are none.  Its "no", and any other set, goes to the one walk
    `_box_report` for its witness."""
    space, rows = dist.space, dist.generator
    if dist.exponent() != k:
        raise ValueError("not q^k points")
    if not 0 <= k <= space.dim:
        raise ValueError("k out of range")
    if rows is not None:
        code = LinearCode(space, rows)
        if code.k == k and (not k or is_mds(code)):
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
    if dist.exponent() != k:
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
    from fractions import Fraction

    import numpy as np
    from . import bulk

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
    closed = bulk._cumulative_counts(ranks, shape).astype(dtype, copy=False)
    closed *= unit
    opened = np.zeros_like(closed)
    opened[(slice(1, None),) * n] = closed[(slice(None, -1),) * n]
    volume = count * math.prod(np.ix_(*grids))
    closed -= volume
    np.subtract(volume, opened, out=opened)
    return Fraction(int(max(closed.max(), opened.max())), count * unit)
