import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nrtcodes.construct import build_optimum_distribution
from nrtcodes.geometry import (ElementaryBox, base_reduce_net,
                               bounded_compositions, box_contains, box_count,
                               check_counts, is_net, is_optimum, net_from_optimum,
                               net_report, optimum_report, star_discrepancy)
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, nrt_weight

from _helpers import lattice_discrepancy


def frac_points(sp, pts):
    return Distribution.from_points(sp, [tuple(Fraction(x) for x in p) for p in pts])


def test_box_count_examples():
    sp = Space(GF(2), 2, 1)
    d = frac_points(sp, [(0, 0), (Fraction(1, 2), Fraction(1, 2))])
    assert box_count(d, ElementaryBox((0, 0), (0, 0))) == 2
    origin = frac_points(sp, [(0, 0)])
    for a in itertools.product(range(2), repeat=2):
        assert box_count(origin, ElementaryBox(a, (0, 0))) == 1
    assert box_count(d, ElementaryBox((1, 0), (1, 0))) == 1


def test_box_membership_is_interval_membership():
    # digit test against the actual real intervals
    sp = Space(GF(3), 2, 2)
    rng = random.Random(0)
    for _ in range(200):
        w = sp.random_word(rng)
        pt = sp.word_to_point(w)
        a = tuple(rng.randrange(3) for _ in range(2))
        m = tuple(rng.randrange(3 ** aj) for aj in a)
        box = ElementaryBox(a, m)
        geometric = all(
            Fraction(mj, 3 ** aj) <= x < Fraction(mj + 1, 3 ** aj)
            for x, aj, mj in zip(pt, a, m)
        )
        assert box_contains(box, w, 3, 2) == geometric


def test_is_net_examples():
    sp = Space(GF(2), 2, 1)
    good = frac_points(sp, [(0, 0), (Fraction(1, 2), Fraction(1, 2))])
    assert is_net(good, 0)
    bad = frac_points(sp, [(0, 0), (0, Fraction(1, 2))])
    assert not is_net(bad, 0)
    report = net_report(bad, 0)
    assert report.box is not None and report.count != report.expected
    # delta = s is the single whole-cube box
    assert is_net(bad, 1)
    with pytest.raises(ValueError):
        is_net(frac_points(sp, [(0, 0)] * 3), 0)


def test_is_optimum_examples():
    sp = Space(GF(3), 2, 2)
    whole = Distribution(sp, words=list(sp.all_words()))
    assert is_optimum(whole, 4)
    built = build_optimum_distribution(sp, 2)
    assert is_optimum(built, 2)
    dup = Distribution(sp, words=[sp.zero()] * 3 + built.words()[1:7])
    assert not is_optimum(dup, 2)


def test_check_counts():
    sp = Space(GF(3), 2, 2)
    built = build_optimum_distribution(sp, 2)
    assert check_counts(built, 2).ok
    # counts follow q^(k - sum a) exactly
    assert box_count(built, ElementaryBox((0, 0), (0, 0))) == 9
    assert box_count(built, ElementaryBox((1, 0), (0, 0))) == 3
    assert box_count(built, ElementaryBox((2, 2), (0, 0))) == 1
    broken = Distribution(sp, words=[sp.zero()] * 9)
    rep = check_counts(broken, 2)
    assert not rep.ok
    # boxes with side sum above k are never walked, so digit depth is no limit
    for s in (63, 64):
        deep = Space(GF(2), 1, s)
        assert check_counts(Distribution(deep, words=[deep.zero(), ((0,) * (s - 1) + (1,),)]), 1).ok


def _oracle_report(dist, families):
    """First failure over (a_vec, per_box) families, found by slow recounts:
    box_count over the boxes in colex order (first coordinate fastest) for
    exact counts; for per_box None (at most one point), the box of the
    earliest point that shares one, located from its exact coordinates."""
    q = dist.space.q
    points = dist.points()
    for a_vec, per_box in families:
        if per_box is None:
            boxes = [tuple(int(x * q ** a) for x, a in zip(p, a_vec)) for p in points]
            counts = Counter(boxes)
            for m in boxes:
                if counts[m] > 1:
                    return a_vec, m, counts[m], 1
            continue
        for rev in itertools.product(*(range(q ** a) for a in reversed(a_vec))):
            m = rev[::-1]
            count = box_count(dist, ElementaryBox(a_vec, m))
            if count != per_box:
                return a_vec, m, count, per_box
    return None


def _as_tuple(report):
    return None if report.ok else (report.box.a, report.box.m, report.count,
                                   report.expected)


def test_witness_is_first_failing_box_of_the_oracle():
    rng = random.Random(11)
    cases = []
    for q in (2, 3, 4, 5):
        configs = [(q, n, s, k) for n, s in ((1, 3), (2, 2), (2, 3), (3, 2))
                   if n <= q + 1 for k in range(1, n * s) if q ** k <= 64]
        cases += rng.sample(configs, 3)
    checked = 0
    for q, n, s, k in cases:
        gf = GF(2, 2) if q == 4 else GF(q)
        space = Space(gf, n, s)
        arr = build_optimum_distribution(space, k).array()
        moved = arr.copy()
        i, j = rng.sample(range(len(arr)), 2)
        moved[i] = arr[j]
        # the first q^(k-1) points (a sub-span) each taken q times
        doubled = np.repeat(arr[:q ** (k - 1)], q, axis=0)
        shift = np.array([[rng.randrange(q) for _ in range(s)] for _ in range(n)])
        shifted = gf.add_table[arr, shift[None]]
        for variant in (moved, doubled, shifted):
            dist = Distribution(space, array=variant)
            families = [(a, 1) for a in bounded_compositions(k, n, s)]
            assert _as_tuple(optimum_report(dist, k)) == _oracle_report(dist, families)
            for delta in (0, 1):
                side = k - delta
                families = [(a, q ** delta) for a in bounded_compositions(side, n, side)]
                assert (_as_tuple(net_report(dist, delta))
                        == _oracle_report(dist, families)), (q, n, s, k, delta)
            families = [(a, q ** (k - total) if total <= k else None)
                        for total in range(n * s + 1)
                        for a in bounded_compositions(total, n, s)]
            assert _as_tuple(check_counts(dist, k)) == _oracle_report(dist, families)
            checked += 1
    assert checked == 36


def test_net_from_optimum():
    sp = Space(GF(3), 2, 2)
    d2 = build_optimum_distribution(sp, 2)
    assert net_from_optimum(d2, 2) == (0, 2, 2)
    d3 = build_optimum_distribution(sp, 3)
    assert net_from_optimum(d3, 3) == (1, 3, 2)
    d4 = build_optimum_distribution(sp, 4)
    assert net_from_optimum(d4, 4) == (2, 4, 2)
    with pytest.raises(ValueError):
        net_from_optimum(build_optimum_distribution(sp, 1), 1)


def test_base_reduce_net():
    # base 4 zero-deficiency net in two dimensions drops to deficiency 1 in base 2
    sp = Space(GF(2, 2), 2, 1)
    net = build_optimum_distribution(sp, 1)
    assert is_net(net, 0)
    reduced, delta_p, report = base_reduce_net(net, 0)
    assert delta_p == 1
    assert report.ok
    assert reduced.space.q == 2 and reduced.space.s == 2
    # e = 1 keeps everything
    sp2 = Space(GF(3), 2, 1)
    net2 = build_optimum_distribution(sp2, 1)
    red2, dp2, rep2 = base_reduce_net(net2, 0)
    assert dp2 == 0 and rep2.ok and red2.space == sp2
    # n = 1: delta' = e * delta
    sp3 = Space(GF(2, 2), 1, 2)
    net3 = build_optimum_distribution(sp3, 2)
    _, dp3, rep3 = base_reduce_net(net3, 0)
    assert dp3 == 0 and rep3.ok


def test_optimum_iff_mds_exhaustive():
    # q=2, n=2, s=1, k=1: every 2-point subset, both directions
    sp = Space(GF(2), 2, 1)
    words = list(sp.all_words())
    for pair in itertools.combinations(words, 2):
        d = Distribution(sp, words=list(pair))
        dist_weight = nrt_weight(sp.sub(pair[0], pair[1]))
        assert is_optimum(d, 1) == (dist_weight == 2)  # ns - k + 1


def test_optimum_iff_mds_randomized():
    rng = random.Random(5)
    sp = Space(GF(3), 2, 1)
    words = list(sp.all_words())
    for _ in range(60):
        d = Distribution(sp, words=rng.sample(words, 3))
        min_dist = d.min_distance("nrt")
        assert is_optimum(d, 1) == (min_dist == 2)


def test_corner_box_membership_iff_weight():
    # X lies in a corner box of volume q^-k iff its weight is at most ns-k
    for gf, n, s in ((GF(2), 2, 3), (GF(3), 2, 2), (GF(3), 1, 4)):
        sp = Space(gf, n, s)
        ns = n * s
        for w in sp.all_words():
            for k in range(ns + 1):
                in_some = any(
                    all(
                        all(w[j][s - 1 - i] == 0 for i in range(aj))
                        for j, aj in enumerate(a)
                    )
                    for a in bounded_compositions(k, n, s)
                )
                assert in_some == (nrt_weight(w) <= ns - k), (w, k)


def test_projection_stability():
    # extending digits below the tested depth never changes the verdict
    rng = random.Random(6)
    sp = Space(GF(2), 2, 2)
    deep = Space(GF(2), 2, 4)
    for k, base in ((2, build_optimum_distribution(sp, 2)),
                    (2, Distribution(sp, words=[sp.zero()] * 4))):
        deep_words = []
        for w in base.words():
            deep_words.append(tuple(
                (rng.randrange(2), rng.randrange(2)) + row for row in w))
        extended = Distribution(deep, words=deep_words)
        assert is_optimum(extended, k, depth=2) == is_optimum(base, k)
        assert extended.project(2).same_multiset(base)


def brute_force_discrepancy(dist):
    """Independent oracle: scan the full q^-s lattice, both one-sided values."""
    space = dist.space
    q, s, n = space.q, space.s, space.n
    pts = dist.points()
    count = len(pts)
    axis = [Fraction(m, q ** s) for m in range(q ** s + 1)]
    best = Fraction(0)
    for corner in itertools.product(axis, repeat=n):
        vol = Fraction(1)
        for c in corner:
            vol *= c
        strict = sum(1 for p in pts if all(x < c for x, c in zip(p, corner)))
        weak = sum(1 for p in pts if all(x <= c for x, c in zip(p, corner)))
        best = max(best, abs(Fraction(strict, count) - vol),
                   abs(Fraction(weak, count) - vol))
    return best


def test_star_discrepancy_examples():
    sp = Space(GF(2), 1, 1)
    two = frac_points(sp, [(0,), (Fraction(1, 2),)])
    assert star_discrepancy(two) == Fraction(1, 2)
    single = frac_points(sp, [(0,)])
    assert star_discrepancy(single) == 1
    for q, s in ((2, 3), (3, 2)):
        gf = GF(q)
        sp = Space(gf, 1, s)
        full = Distribution(sp, words=list(sp.all_words()))
        assert star_discrepancy(full) == Fraction(1, q ** s)
    # coordinates beyond 64-bit integers: one point at 1 - 2^-70
    deep = Space(GF(2), 1, 70)
    assert star_discrepancy(Distribution(deep, words=[((1,) * 70,)])) == 1 - Fraction(1, 2 ** 70)


def test_star_discrepancy_matches_bruteforce():
    # every space here has a lattice of at most 125 corners
    spaces = [Space(gf, n, s) for gf, n, s in (
        (GF(2), 1, 3), (GF(2), 2, 2), (GF(3), 2, 1), (GF(2), 3, 1), (GF(2), 3, 2),
        (GF(3), 3, 1), (GF(2, 2), 2, 1), (GF(2, 2), 3, 1), (GF(3, 2), 2, 1),
        (GF(3, 2), 1, 2), (GF(5), 1, 2))]
    rng = random.Random(7)
    for trial in range(200):
        sp = spaces[trial % len(spaces)]
        count = rng.randrange(1, 10)
        words = [sp.random_word(rng) for _ in range(count)]
        if count > 2:
            words[-1] = words[0]  # a repeated point
        d = Distribution(sp, words=words)
        assert star_discrepancy(d) == brute_force_discrepancy(d) == lattice_discrepancy(d)
    for sp in spaces:  # one point, at the origin and at the far corner
        for word in (sp.zero(), tuple((sp.q - 1,) * sp.s for _ in range(sp.n))):
            d = Distribution(sp, words=[word])
            assert star_discrepancy(d) == brute_force_discrepancy(d)


def test_star_discrepancy_of_a_4096_point_set():
    sp = Space(GF(2, 2), 2, 4)
    dist = build_optimum_distribution(sp, 6)
    value = star_discrepancy(dist)
    assert value == lattice_discrepancy(dist) == Fraction(519, 65536)


def _points_with_ranks(distinct_x, distinct_y):
    """A set over GF(2), n = 2, s = 16 whose coordinates take distinct_x
    and distinct_y values, so its grid has (distinct_x + 1)(distinct_y + 1)
    cells."""
    count = max(distinct_x, distinct_y)
    values = np.stack([np.arange(count) % distinct_x, np.arange(count) % distinct_y], axis=1)
    digits = (values[:, :, None] >> np.arange(16)) & 1  # least significant first
    return Distribution(Space(GF(2), 2, 16), array=digits)


def test_star_discrepancy_cell_bound(monkeypatch):
    from nrtcodes import geometry

    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(geometry, "_cumulative_counts", no_histogram)
    # 17 * 61681 = 2^20 + 1 cells are refused before the histogram
    with pytest.raises(ValueError, match="too large for the exact grid sweep"):
        star_discrepancy(_points_with_ranks(16, 61680))
    # 16 * 65536 = 2^20 cells reach it
    assert geometry.DISCREPANCY_CELL_BOUND == 16 * 65536
    with pytest.raises(AssertionError, match="histogram was allocated"):
        star_discrepancy(_points_with_ranks(15, 65535))


def test_discrepancy_of_generated_net():
    sp = Space(GF(2), 2, 3)
    net = build_optimum_distribution(sp, 3)
    assert is_net(net, 0)
    value = star_discrepancy(net)
    assert isinstance(value, Fraction) and 0 < value < 1
    # a uniform random 8-point set is very unlikely to beat the net; just
    # sanity check the net beats the trivial one-corner bound
    assert value <= Fraction(1, 2)


def test_net_discrepancy_growth_smoke():
    # unnormalized discrepancy of zero-deficiency nets should track s^(n-1),
    # not the point count; smoke check with the small-case constant
    ratios = []
    for s in range(1, 5):
        sp = Space(GF(2), 2, s)
        net = build_optimum_distribution(sp, s)
        assert is_net(net, 0)
        unnormalized = star_discrepancy(net) * len(net)
        ratios.append(unnormalized / s)
    assert max(ratios) <= 2  # observed small-case constant with slack
    # while the count grows by 2^s, the scaled discrepancy stays flat
    assert ratios[-1] <= ratios[0] * 2
