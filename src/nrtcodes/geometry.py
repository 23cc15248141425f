"""Elementary boxes, net / optimum-distribution verification, and exact
star discrepancy.

Box membership is decided purely on digits: a point lies in the box with
side exponents A and positions M iff its leading a_j radix digits agree
with those of m_j / q^(a_j) in every coordinate.  Verification sweeps
enumerate side-exponent vectors A in colex order and positions M in
mixed-radix order, so failure reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .words import Distribution

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


def _anchor_digits(q: int, a: int, m: int) -> tuple[int, ...]:
    """Leading a radix digits of m / q^a, most significant first."""
    if m >= q ** a:
        raise ValueError("box position out of range")
    return tuple(m // q ** i % q for i in range(a - 1, -1, -1))


def box_contains(box: ElementaryBox, word, q: int, s: int) -> bool:
    for row, aj, mj in zip(word, box.a, box.m):
        digits = _anchor_digits(q, aj, mj)
        for i, want in enumerate(digits):
            # eta digit i+1 of the row; digits beyond the stored depth are 0
            have = row[s - 1 - i] if i < s else 0
            if have != want:
                return False
    return True


def box_count(dist: Distribution, box: ElementaryBox) -> int:
    space = dist.space
    if len(box.a) != space.n:
        raise ValueError("box dimension mismatch")
    return sum(1 for w in dist.words()
               if box_contains(box, w, space.q, space.s))


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


def _box_keys(dist: Distribution, a_vec):
    """Per point, the colex index m_1 + q^a_1 (m_2 + q^a_2 (m_3 + ...)) of
    the box of family a_vec that holds it, so the first coordinate's
    position varies fastest."""
    import numpy as np

    q, s = dist.space.q, dist.space.s
    if q ** sum(a_vec) > 1 << 63:
        raise ValueError("box family too large for 64-bit box indices")
    eta = dist.eta_array()
    keys = np.zeros(len(dist), dtype=np.int64)
    # Horner's rule in place, so no temporary of N keys is made
    for j in reversed(range(len(a_vec))):
        a = a_vec[j]
        depth = min(a, s)
        for i in range(depth):
            keys *= q
            keys += eta[:, j, i]
        keys *= q ** (a - depth)  # digits past the stored depth are zero
    return keys


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


def _family_report(dist: Distribution, families) -> BoxReport:
    """Check, family by family, that every box of each (a_vec, per_box)
    family holds exactly `per_box` points; the witness is the first
    failing box, in colex order, of the first failing family.  Needs
    q^sum(a_vec) <= len(dist), so the counts fit in memory."""
    import numpy as np

    q = dist.space.q
    for a_vec, per_box in families:
        counts = np.bincount(_box_keys(dist, a_vec), minlength=q ** sum(a_vec))
        bad = np.flatnonzero(counts != per_box)
        if bad.size:
            key = int(bad[0])
            m_vec = []
            for a in a_vec:
                key, m = divmod(key, q ** a)
                m_vec.append(m)
            return BoxReport(False, ElementaryBox(tuple(a_vec), tuple(m_vec)),
                             int(counts[bad[0]]), per_box)
    return BoxReport(True)


def net_report(dist: Distribution, delta: int) -> BoxReport:
    """Check the defining property of a (delta, s, n)-net in base q: every
    elementary box of volume q^(delta-s) holds exactly q^delta points.
    The net parameter s is read off from the cardinality q^s."""
    space = dist.space
    q = space.q
    count = len(dist)
    s_net = 0
    while q ** s_net < count:
        s_net += 1
    if q ** s_net != count:
        raise ValueError("not q^s points")
    if not 0 <= delta <= s_net:
        raise ValueError("deficiency out of range")
    families = bounded_compositions(s_net - delta, space.n, s_net - delta)
    return _family_report(dist, ((a_vec, q ** delta) for a_vec in families))


def is_net(dist: Distribution, delta: int) -> bool:
    return net_report(dist, delta).ok


def optimum_report(dist: Distribution, k: int, depth: int | None = None) -> BoxReport:
    """Check that every elementary box with side exponents summing to k
    (each at most `depth`, default the stored digit depth) holds exactly
    one of the q^k points."""
    space = dist.space
    q = space.q
    if len(dist) != q ** k:
        raise ValueError("not q^k points")
    depth = space.s if depth is None else depth
    if not 0 <= k <= space.n * depth:
        raise ValueError("k out of range")
    families = bounded_compositions(k, space.n, depth)
    return _family_report(dist, ((a_vec, 1) for a_vec in families))


def is_optimum(dist: Distribution, k: int, depth: int | None = None) -> bool:
    return optimum_report(dist, k, depth).ok


def check_counts(dist: Distribution, k: int) -> BoxReport:
    """Full audit of an optimum distribution: every box with side sum
    t <= k holds exactly q^(k - t) points, so every other box holds at
    most one.

    Only side sums up to k are walked: a box with sum above k (each
    a_j <= s) lies inside a box with sum exactly k, which holds one
    point, so the at-most-one families cannot fail once these pass."""
    space = dist.space
    q = space.q
    if len(dist) != q ** k:
        raise ValueError("not q^k points")
    return _family_report(dist, (
        (a_vec, q ** (k - total))
        for total in range(min(k, space.n * space.s) + 1)
        for a_vec in bounded_compositions(total, space.n, space.s)))


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
    Integer arithmetic only; grids of more than DISCREPANCY_CELL_BOUND
    cells are refused before allocating.
    """
    import numpy as np

    space = dist.space
    q, n, s = space.q, space.n, space.s
    count = len(dist)
    if count == 0:
        raise ValueError("empty distribution")
    ranks, grids = [], []
    for j in range(n):
        # distinct digit rows in value order (digits most significant first)
        rows, inverse = np.unique(dist.eta_array()[:, j], axis=0, return_inverse=True)
        ranks.append(inverse.reshape(-1))
        nums = rows @ q ** np.arange(s - 1, -1, -1, dtype=object)  # over q^s
        grids.append(np.append(nums, q ** s))  # then 1
    shape = tuple(len(g) for g in grids)
    if math.prod(shape) > DISCREPANCY_CELL_BOUND:
        raise ValueError("point set too large for the exact grid sweep; "
                         "sampled estimation is out of scope")
    unit = q ** (s * n)
    # closed and open counts times q^(sn) against count * volume * q^(sn)
    closed = _cumulative_counts(ranks, shape).astype(object)
    closed *= unit
    opened = np.zeros_like(closed)
    opened[(slice(1, None),) * n] = closed[(slice(None, -1),) * n]
    volume = count * math.prod(np.ix_(*grids))
    closed -= volume
    np.subtract(volume, opened, out=opened)
    return Fraction(int(max(closed.max(), opened.max())), count * unit)
