import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrtcodes import geometry
from nrtcodes.codes import CharacterReport
from nrtcodes.construct import build_mds_code, build_optimum_distribution
from nrtcodes.geometry import (BoxReport, ElementaryBox, _box_report, base_reduce_net,
                               check_counts, is_net, is_optimum, net_from_optimum,
                               net_report, optimum_report, star_discrepancy)
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, nrt_weight

from _helpers import (all_words, bounded_compositions, box_contains, box_count, family_report,
                      from_points, lattice_discrepancy, min_distance, random_word, same_multiset)


def frac_points(sp, pts):
    return from_points(sp, [tuple(Fraction(x) for x in p) for p in pts])


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
        w = random_word(sp, rng)
        pt = sp.word_to_point(w)
        a = tuple(rng.randrange(3) for _ in range(2))
        m = tuple(rng.randrange(3 ** aj) for aj in a)
        box = ElementaryBox(a, m)
        geometric = all(
            Fraction(mj, 3 ** aj) <= x < Fraction(mj + 1, 3 ** aj)
            for x, aj, mj in zip(pt, a, m)
        )
        assert box_contains(box, w, 3, 2) == geometric


def test_reports_are_checked_named_tuples():
    with pytest.raises(ValueError, match="differ in length"):
        ElementaryBox((1, 0), (0,))
    for a, m in (((-1, 0), (0, 0)), ((1, 0), (0, -1))):
        with pytest.raises(ValueError, match="negative box parameters"):
            ElementaryBox(a=a, m=m)
    box = ElementaryBox(a=(1, 0), m=(2, 0))
    assert box == ElementaryBox((1, 0), (2, 0))
    assert hash(box) == hash(ElementaryBox((1, 0), (2, 0)))
    assert len({box, ElementaryBox((1, 0), (2, 0)), ElementaryBox((0, 1), (0, 2))}) == 2
    assert repr(box) == "ElementaryBox(a=(1, 0), m=(2, 0))"
    assert box.volume(3) == Fraction(1, 3)
    failed = BoxReport(False, box, count=2, expected=1)
    assert not failed and (failed.box, failed.count, failed.expected) == (box, 2, 1)
    assert BoxReport(ok=True) and BoxReport(True).box is None
    assert repr(BoxReport(True)) == "BoxReport(ok=True, box=None, count=None, expected=None)"
    assert not CharacterReport(False, 3, "character sum broke at Y key 5")
    assert CharacterReport(ok=True, checked=4) == CharacterReport(True, 4, None)
    assert repr(CharacterReport(True, 4)) == "CharacterReport(ok=True, checked=4, failure=None)"


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
    whole = Distribution(sp, words=list(all_words(sp)))
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


FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 8: GF(2, 3),
          9: GF(3, 2)}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_box_report_matches_the_per_family_recount(data):
    # the one walk against the family-by-family oracle, in witness, count
    # and expected count, for every check that calls it
    q = data.draw(st.sampled_from(sorted(FIELDS)))
    n = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, s)
    k = data.draw(st.integers(1, max(k for k in range(1, space.dim + 1)
                                     if q ** k <= 1024 or k == 1)))
    digit = st.integers(0, q - 1)
    word = st.lists(digit, min_size=space.dim, max_size=space.dim)
    kind = data.draw(st.sampled_from(["span", "shift", "moved", "doubled", "multiset"]))
    if kind == "multiset":
        # q^k words drawn from a small pool, so boxes overfill and empty
        pool = data.draw(st.lists(word, min_size=1, max_size=8))
        pick = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                  min_size=q ** k, max_size=q ** k))
        arr = np.array([pool[i] for i in pick]).reshape(q ** k, n, s)
    else:
        # an optimum set (built for n <= q + 1), or the span of any rows
        if n <= q + 1 and data.draw(st.booleans()):
            arr = build_optimum_distribution(space, k).array().copy()
        else:
            rows = data.draw(st.lists(word, min_size=k, max_size=k))
            arr = Distribution(space, generator=rows).array().copy()
        if kind == "shift":
            shift = np.array(data.draw(word)).reshape(n, s)
            arr = space.gf.add_table[arr, shift[None]]
        elif kind == "moved":
            i, j = data.draw(st.lists(st.integers(0, len(arr) - 1), min_size=2, max_size=2))
            arr[i] = arr[j]
        elif kind == "doubled":
            # the first q^(k-1) words, a sub-span, each taken q times
            arr = np.repeat(arr[:q ** (k - 1)], q, axis=0)
    dist = Distribution(space, array=arr)
    assert _box_report(dist, k, s) == family_report(
        dist, [(a, 1) for a in bounded_compositions(k, n, s)])
    for delta in range(k + 1):
        side = k - delta  # sides above s read zero digits
        assert _box_report(dist, side, side) == family_report(
            dist, [(a, q ** delta) for a in bounded_compositions(side, n, side)])
    for total in range(min(k, space.dim) + 1):
        assert _box_report(dist, total, s) == family_report(
            dist, [(a, q ** (k - total)) for a in bounded_compositions(total, n, s)])


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
    words = list(all_words(sp))
    for pair in itertools.combinations(words, 2):
        d = Distribution(sp, words=list(pair))
        dist_weight = nrt_weight(sp.sub(pair[0], pair[1]))
        assert is_optimum(d, 1) == (dist_weight == 2)  # ns - k + 1


def test_optimum_iff_mds_randomized():
    rng = random.Random(5)
    sp = Space(GF(3), 2, 1)
    words = list(all_words(sp))
    for _ in range(60):
        d = Distribution(sp, words=rng.sample(words, 3))
        min_dist = min_distance(d, "nrt")
        assert is_optimum(d, 1) == (min_dist == 2)


def test_corner_box_membership_iff_weight():
    # X lies in a corner box of volume q^-k iff its weight is at most ns-k
    for gf, n, s in ((GF(2), 2, 3), (GF(3), 2, 2), (GF(3), 1, 4)):
        sp = Space(gf, n, s)
        ns = n * s
        for w in all_words(sp):
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
        assert is_optimum(extended.project(2), k) == is_optimum(base, k)
        assert same_multiset(extended.project(2), base)


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
        full = Distribution(sp, words=list(all_words(sp)))
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
        words = [random_word(sp, rng) for _ in range(count)]
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


def test_star_discrepancy_in_int64_and_in_python_integers():
    # N q^(sn) < 2^63 takes int64 counts, larger products Python integers;
    # zero digits appended below the stored ones move no point, so the
    # deep copy of each set has the same discrepancy
    rng = random.Random(12)
    for gf, n, s in ((GF(2), 2, 3), (GF(3), 2, 2), (GF(2, 2), 3, 1), (GF(5), 1, 3)):
        sp = Space(gf, n, s)
        for _ in range(10):
            d = Distribution(sp, words=[random_word(sp, rng) for _ in range(rng.randrange(1, 12))])
            pad = 64 // n  # len(d) * 2^(n * (s + pad)) >= 2^64
            deep = Distribution(Space(gf, n, s + pad), array=np.concatenate(
                [np.zeros((len(d), n, pad), dtype=np.int16), d.array()], axis=2))
            assert star_discrepancy(d) == star_discrepancy(deep) == lattice_discrepancy(d)
    # at the edge N q^(sn) = 2^62 is counted in int64, 2^63 in Python integers
    edge = Space(GF(2), 1, 62)
    assert star_discrepancy(Distribution(edge, words=[((1,) * 62,)])) == 1 - Fraction(1, 2 ** 62)
    assert star_discrepancy(Distribution(edge, words=[edge.zero()] * 2)) == 1


def both_routes(dist):
    """`star_discrepancy` of a set with a generator by each of its routes,
    which must agree."""
    by_python = geometry._python_discrepancy(dist)
    assert geometry._numpy_discrepancy(dist) == by_python
    return by_python


def deep_span(dist, pad):
    """The lazy set `dist` in a space of `pad` more digits a coordinate,
    each below the stored ones and 0: the same points."""
    space = dist.space
    s, deep = space.s, Space(space.gf, space.n, space.s + pad)

    def padded(flat):
        return [v for j in range(space.n) for v in [0] * pad + list(flat[j * s:(j + 1) * s])]

    return Distribution(deep, generator=[padded(r) for r in dist.generator],
                        offset=padded(dist.offset) if dist.offset else None)


def test_star_discrepancy_of_lazy_sets_in_int64_and_in_python_integers():
    # the inputs of the test above, as lazy spans and cosets: both routes,
    # on the set and on its deep copy, against the full-grid oracle
    rng = random.Random(12)
    for gf, n, s in ((GF(2), 2, 3), (GF(3), 2, 2), (GF(2, 2), 3, 1), (GF(5), 1, 3)):
        sp = Space(gf, n, s)
        for _ in range(10):
            k = rng.randrange(0, 4)
            d = Distribution(sp, generator=[sp.flatten(random_word(sp, rng)) for _ in range(k)],
                             offset=sp.flatten(random_word(sp, rng)) if k % 2 else None)
            expected = lattice_discrepancy(d)
            assert both_routes(d) == both_routes(deep_span(d, 64 // n)) == expected
    # one point at 1 - 2^-62, and the zero point twice: a coset and a span
    edge = Space(GF(2), 1, 62)
    top = Distribution(edge, generator=[], offset=[1] * 62)
    assert both_routes(top) == 1 - Fraction(1, 2 ** 62)
    assert both_routes(Distribution(edge, generator=[[0] * 62])) == 1
    # coordinates keyed in int64 (3^39 < 2^63) and in Python integers (3^40)
    sp = Space(GF(3), 2, 3)
    for _ in range(10):
        d = Distribution(sp, generator=[sp.flatten(random_word(sp, rng)) for _ in range(2)],
                         offset=sp.flatten(random_word(sp, rng)))
        expected = lattice_discrepancy(d)
        for depth in (39, 40):
            assert both_routes(deep_span(d, depth - 3)) == expected


ROUTE_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_the_two_discrepancy_routes_agree(data):
    # spans and cosets whose full q^-s lattice is small enough for the oracle
    gf = data.draw(st.sampled_from(ROUTE_FIELDS))
    n, s = data.draw(st.sampled_from([(n, s) for n in (1, 2, 3) for s in (1, 2, 3)
                                      if gf.q ** (n * s) <= 8192]))
    sp = Space(gf, n, s)
    word = st.lists(st.integers(0, gf.q - 1), min_size=sp.dim, max_size=sp.dim)
    k = data.draw(st.integers(0, max(k for k in range(sp.dim + 1) if gf.q ** k <= 1024)))
    rows = data.draw(st.lists(word, min_size=k, max_size=k))
    d = Distribution(sp, generator=rows, offset=data.draw(st.none() | word))
    # axis j takes q^(r_j) values, r_j the rank of the block-j columns
    eta = d.eta_array()
    assert [size - 1 for size in geometry._grid_sizes(sp, d.generator)] == [
        len(np.unique(eta[:, j, :], axis=0)) for j in range(n)]
    assert both_routes(d) == star_discrepancy(d) == lattice_discrepancy(d)


def test_star_discrepancy_above_256_takes_the_numpy_route(monkeypatch):
    def refuse(dist):
        raise AssertionError("the Python route ran")

    monkeypatch.setattr(geometry, "_python_discrepancy", refuse)
    sp = Space(GF(2, 9), 2, 1)
    span = Distribution(sp, generator=[[1, 5]], offset=[0, 7])
    assert star_discrepancy(span) == lattice_discrepancy(span)


def test_star_discrepancy_refuses_a_span_from_its_rows(monkeypatch):
    # a refused span or coset is refused from the ranks of its rows: no
    # point is built, and the message is the one an array gets
    def unbuilt(self):
        raise AssertionError("the points were built")

    space = Space(GF(2, 4), 5, 3)
    rows = build_mds_code(space, 5).basis
    sets = [Distribution(space, generator=rows),
            Distribution(space, generator=rows, offset=[1] * space.dim),
            Distribution(Space(GF(2), 1, 70), generator=[[int(c == 69 - r) for c in range(70)]
                                                         for r in range(65)])]
    monkeypatch.setattr(Distribution, "array", unbuilt)
    monkeypatch.setattr(Distribution, "eta_array", unbuilt)
    for dist in sets:
        with pytest.raises(ValueError) as refused:
            star_discrepancy(dist)
        assert str(refused.value) == ("point set too large for the exact grid sweep; "
                                      "sampled estimation is out of scope")


def test_star_discrepancy_keys_at_the_int64_edge():
    # a coordinate is ranked by its value times q^s, in int64 while
    # q^s < 2^63 (3^39 < 2^63) and in Python integers above (3^40 > 2^63)
    rng = random.Random(13)
    sp = Space(GF(3), 2, 3)
    for _ in range(10):
        d = Distribution(sp, words=[random_word(sp, rng) for _ in range(rng.randrange(1, 12))])
        expected = lattice_discrepancy(d)
        for depth in (39, 40):
            deep = Distribution(Space(GF(3), 2, depth), array=np.concatenate(
                [np.zeros((len(d), 2, depth - 3), dtype=np.int16), d.array()], axis=2))
            assert star_discrepancy(deep) == expected


def _points_with_ranks(distinct_x, distinct_y):
    """A set over GF(2), n = 2, s = 16 whose coordinates take distinct_x
    and distinct_y values, so its grid has (distinct_x + 1)(distinct_y + 1)
    cells."""
    count = max(distinct_x, distinct_y)
    values = np.stack([np.arange(count) % distinct_x, np.arange(count) % distinct_y], axis=1)
    digits = (values[:, :, None] >> np.arange(16)) & 1  # least significant first
    return Distribution(Space(GF(2), 2, 16), array=digits)


def test_star_discrepancy_cell_bound(monkeypatch):
    from nrtcodes import bulk, geometry

    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(bulk, "_cumulative_counts", no_histogram)
    # 17 * 61681 = 2^20 + 1 cells are refused before the histogram
    with pytest.raises(ValueError, match="too large for the exact grid sweep"):
        star_discrepancy(_points_with_ranks(16, 61680))
    # 16 * 65536 = 2^20 cells reach it
    assert geometry.DISCREPANCY_CELL_BOUND == 16 * 65536
    with pytest.raises(AssertionError, match="histogram was allocated"):
        star_discrepancy(_points_with_ranks(15, 65535))


def test_star_discrepancy_refuses_before_ranking_every_coordinate(monkeypatch):
    from nrtcodes import bulk

    ranked = []
    unique = np.unique

    def counted(values, *args, **kwargs):
        ranked.append(values.shape)
        return unique(values, *args, **kwargs)

    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(np, "unique", counted)
    monkeypatch.setattr(bulk, "_cumulative_counts", no_histogram)
    # 1024 points on the diagonal of n = 5: an axis has 1025 grid entries, so
    # two ranked axes and three to come make 1025^2 * 2^3 > 2^20 cells
    digits = (np.arange(1024)[:, None, None] >> np.arange(10)) & 1
    diagonal = Distribution(Space(GF(2), 5, 10), array=np.repeat(digits, 5, axis=1))
    with pytest.raises(ValueError, match="too large for the exact grid sweep"):
        star_discrepancy(diagonal)
    assert len(ranked) == 2
    # one point has 2^n cells: n = 21 is refused after one axis, and n = 20
    # reaches the histogram with every axis ranked
    for n, ranks, error in ((21, 1, "too large for the exact grid sweep"),
                            (20, 20, "histogram was allocated")):
        ranked.clear()
        space = Space(GF(2), n, 1)
        with pytest.raises((ValueError, AssertionError), match=error):
            star_discrepancy(Distribution(space, words=[space.zero()]))
        assert len(ranked) == ranks


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
