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
import sys
from collections import namedtuple
from functools import reduce
from itertools import accumulate, chain
from operator import add, sub

from .codes import NUMPY_START_NS, _lookups, _push, in_span, is_mds, rank
from .words import Distribution, _span_columns

DISCREPANCY_CELL_BOUND = 1 << 20
_TOO_LARGE = "point set too large for the exact grid sweep; sampled estimation is out of scope"


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
    ones), one bincount a family; or the `codes._push` stack of the basis
    columns of x0 + span(B)'s held code, none past the stored digits, so
    no point is built.  A family reaches q^r boxes, r its columns' rank, of
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
        basis, lookups, copy = dist.code().basis, _lookups(space.gf), list.copy
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
    points, however many; whatever its offset, it is optimum if its held
    code (`Distribution.code`) has dimension k and is MDS (`codes.is_mds`),
    and trivially if k = 0.  Its "no", and any other set, goes to the one
    walk `_box_report` for its witness."""
    space, code = dist.space, dist.code()
    if dist.exponent() != k:
        raise ValueError("not q^k points")
    if not 0 <= k <= space.dim:
        raise ValueError("k out of range")
    if code is not None and code.k == k and (not k or is_mds(code)):
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


def _grid_sizes(space, rows) -> list[int]:
    """The q^(r_j) values of each coordinate j of x0 + span of the flat `rows`,
    and 1: r_j is the rank of their block-j columns (Niederreiter 1992, ch. 4)."""
    s = space.s
    return [space.q ** rank(space.gf, [r[j * s:(j + 1) * s] for r in rows]) + 1
            for j in range(space.n)]


def star_discrepancy(dist: Distribution) -> Fraction:
    """Exact star discrepancy sup |count/N - volume| over anchored boxes,
    as a Fraction.

    The supremum over the half-open boxes [0, y) is reached at the corners
    c of the grid of distinct point coordinates (and 1), by the count of
    points x < c there or by the count of x <= c in the limit from above:
    the cumulative histogram of the points' ranks on each axis, and it
    shifted one rank along every axis.  x0 + span(B) is counted as x0 plus
    the span of its held code's basis, as dependent rows repeat each point
    alike, and refused above DISCREPANCY_CELL_BOUND cells (`_grid_sizes`);
    else the cheaper route is taken, in ns from the C cells, the G entries
    of the n axes and the D digits of its q^k points: Python integers at
    (200 + 50 n) C + 750 G + 90 D if q <= 256, or numpy at 150 us + 6 n C +
    12 D + `codes.NUMPY_START_NS` while numpy is not loaded, fit within
    0.85-1.4x to best-of-5 in-process times of 29 spans, q <= 16, of 676 to
    531 441 cells (2 vCPUs, x86-64, Python 3.11, numpy 2.4).  Arrays take numpy."""
    space, code = dist.space, dist.code()
    if code is None:
        return _numpy_discrepancy(dist)
    dist = Distribution(space, generator=code.basis, offset=dist.offset)
    sizes = _grid_sizes(space, code.basis)
    cells, digits, n = math.prod(sizes), space.q ** code.k * space.dim, space.n
    if cells > DISCREPANCY_CELL_BOUND:
        raise ValueError(_TOO_LARGE)
    python = (200 + 50 * n) * cells + 750 * sum(sizes) + 90 * digits
    numpy = (150_000 + 6 * n * cells + 12 * digits
             + (0 if "numpy" in sys.modules else NUMPY_START_NS))
    return (_python_discrepancy if space.q <= 256 and python <= numpy
            else _numpy_discrepancy)(dist)


def _turned(counts: list, shape, cumulative: bool) -> list:
    """The flat C-order table `counts` of `shape` summed, or shifted one entry
    (0 first), along each axis in turn, which goes from last to first."""
    for size in reversed(shape):
        parts = [counts[d::size] for d in range(size)]
        parts = (accumulate(parts, lambda run, part: list(map(add, run, part))) if cumulative
                 else [[0] * len(parts[0]), *parts[:-1]])
        counts = list(chain.from_iterable(parts))
    return counts


def _python_discrepancy(dist: Distribution) -> Fraction:
    """`star_discrepancy` of x0 + span(B), q <= 256, in Python integers,
    from its digit columns (`words._span_columns`)."""
    from fractions import Fraction

    space = dist.space
    q, n, s = space.q, space.n, space.s
    count, unit = q ** len(dist.generator), q ** (s * n)
    columns = _span_columns(space.gf, dist.generator, space.dim, dist.offset)
    index, grids = [0] * count, []
    for j in range(n):
        values = list(columns[j * s + s - 1])
        for col in reversed(columns[j * s:j * s + s - 1]):  # Horner's rule
            values = list(map(add, map(q.__mul__, values), col))
        grids.append(sorted(set(values)) + [q ** s])  # then 1
        ranks = {v: r for r, v in enumerate(grids[-1])}
        index = list(map(add, map(len(grids[-1]).__mul__, index), map(ranks.__getitem__, values)))
    shape = list(map(len, grids))
    closed = [0] * math.prod(shape)
    for i in index:
        closed[i] += unit  # counts times q^(sn), against count * volume * q^(sn)
    closed = _turned(closed, shape, True)
    opened = _turned(closed, shape, False)
    volume = reduce(lambda vol, grid: [v * g for v in vol for g in grid], grids, [count])
    return Fraction(max(max(map(sub, closed, volume)), max(map(sub, volume, opened))),
                    count * unit)


def _numpy_discrepancy(dist: Distribution) -> Fraction:
    """`star_discrepancy` by numpy, in int64 while N q^(sn) < 2^63; an array is
    refused once its axes ranked so far, times 2 an axis to come, pass the bound."""
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
            raise ValueError(_TOO_LARGE)
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
