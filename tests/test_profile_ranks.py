"""NRT weight spectra and corner box counts of spans from the ranks of
their prefix profiles (`codes.span_weight_counts`,
`codes.corner_box_counts`), against the k-pass enumeration and against
one rank per profile, and the one route rule, `codes._route`, by which
those two and `LinearCode.min_weight` read ranks, count words or walk a
check matrix: every route gives the same answer whatever the rule picks,
and the rule keeps its bounds."""

import random
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrtcodes import bulk, codes, peano
from nrtcodes.codes import LinearCode, corner_box_counts
from nrtcodes.construct import build_mds_code, build_optimum_distribution
from nrtcodes.gf import GF
from nrtcodes.spectra import distance_spectrum, mds_spectrum
from nrtcodes.words import Distribution, Space

from _helpers import (counted_weight, profile_ranks_one_by_one, random_code, route_counts,
                      run_without_numpy, span_array_by_passes)

FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2), GF(2, 4)]


def refuse(name):
    def call(*args, **kwargs):
        pytest.fail(f"{name} called")
    return call


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rank_histogram_matches_the_k_pass_enumeration(data):
    gf = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 5))
    s = data.draw(st.integers(1, 4))
    # k <= 6, and q^k <= 2^15 so that the oracle's array stays small
    k = data.draw(st.integers(0, max(e for e in range(7) if gf.q ** e <= 1 << 15)))
    width = n * s
    entry = st.integers(0, gf.q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                              min_size=k, max_size=k))
    # a zero row, and a row that repeats a multiple of another
    if k and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, k - 1))] = [0] * width
    if k > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                  unique=True))
        c = data.draw(st.integers(1, gf.q - 1))
        rows[j] = [int(gf.mul_table[c, v]) for v in rows[i]]
    space = Space(gf, n, s)
    eager = span_array_by_passes(gf, rows, width)
    expected = {metric: np.bincount(weights, minlength=width + 1).tolist()
                for metric, weights in (("nrt", bulk.nrt_weights(eager, n, s)),
                                        ("hamming", np.count_nonzero(eager, axis=1)))}
    # Hamming counts are the NRT counts of the flat rows at depth 1
    for metric, want in expected.items():
        depth = space if metric == "nrt" else Space(gf, width, 1)
        counts = codes.span_weight_counts(depth, rows)
        assert counts == want
        assert all(type(c) is int for c in counts)
    # the rank route on every drawn shape, whichever route the rule picks
    assert route_counts("ranks", space, rows) == expected["nrt"]


def test_profile_ranks_saturate_in_the_middle_of_a_block():
    # the top two digits of coordinate 0 are independent, so the rank
    # reaches k = 2 at depth 2 of 3 in block 0: the profiles (2, *) and
    # (3, *) are one slice, and (1, 1) reaches it in block 1
    space = Space(GF(3), 2, 3)
    rows = [[2, 0, 1, 1, 2, 0], [1, 1, 0, 0, 1, 2]]
    ranks = codes._profile_ranks(space, rows)
    assert ranks == profile_ranks_one_by_one(space, rows)
    assert ranks[2 * 4:] == [2] * 8 and ranks[1 * 4 + 1] == 2
    expected = np.bincount(bulk.nrt_weights(span_array_by_passes(space.gf, rows, 6),
                                            2, 3), minlength=7)
    assert route_counts("ranks", space, rows) == expected.tolist()


@pytest.mark.parametrize("q, n, s, k", [(2, 3, 2, 3), (3, 2, 4, 5), (4, 4, 2, 4),
                                        (5, 1, 8, 3), (3, 4, 1, 3)])
def test_profile_ranks_match_one_rank_per_profile(q, n, s, k):
    space = Space({2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}[q], n, s)
    rows = build_optimum_distribution(space, k).generator
    # an optimum set: every profile of total t has rank min(t, k)
    ranks = codes._profile_ranks(space, rows)
    assert ranks == [min(sum(d), k) for d in product(range(s + 1), repeat=n)]
    dependent = list(rows[:-1]) + [rows[0]]
    assert codes._profile_ranks(space, dependent) == \
        profile_ranks_one_by_one(space, dependent)


def test_built_spectra_and_minimum_weights_are_counted_without_words(monkeypatch):
    monkeypatch.setattr(bulk, "_span_blocks", refuse("_span_blocks"))
    for n, s in ((2, 4), (4, 2), (1, 8)):
        space = Space(GF(5), n, s)
        dist = build_optimum_distribution(space, 8)
        assert distance_spectrum(dist, space.zero()) == mds_spectrum(n, s, 8, 5)
        assert dist._array is None
    # the rule reads ranks or walks the check matrix here, and counts no words
    code = build_mds_code(Space(GF(5), 4, 2), 4)
    assert counted_weight(code) == code.min_weight("nrt") == 5
    code = LinearCode(Space(GF(3), 2, 2), [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert counted_weight(code) == code.min_weight("nrt") == 1


def test_a_table_wider_than_the_span_is_not_built(monkeypatch):
    # 2^20 profiles and 4 words: both rows on coordinate 0
    gf, n, s = GF(2), 20, 1
    space = Space(gf, n, s)
    rows = [[1] + [0] * (n - 1)] * 2
    expected = np.bincount(bulk.nrt_weights(span_array_by_passes(gf, rows, n), n, s),
                           minlength=n + 1)
    assert expected[:2].tolist() == [2, 2]
    monkeypatch.setattr(codes, "_profile_ranks", refuse("_profile_ranks"))
    # caches filled outside the trace
    distance_spectrum(Distribution(space, generator=rows[:1]), space.zero())
    tracemalloc.start()
    try:
        hist = distance_spectrum(Distribution(space, generator=rows), space.zero())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist == expected.tolist()
    assert peak < 2 ** 20


@pytest.mark.parametrize("q, n, s, k", [(5, 3, 2, 3), (3, 2, 3, 4), (3, 4, 1, 2),
                                        (4, 1, 4, 2)])
def test_built_corner_counts_read_the_ranks(q, n, s, k, monkeypatch):
    space = Space({2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}[q], n, s)
    plain = Distribution(space, array=build_optimum_distribution(space, k).array().copy())
    expected = corner_box_counts(plain)
    dist = build_optimum_distribution(space, k)
    # at most 27 profiles: the rule reads them, and builds no array
    assert codes._route(space, k) == "ranks"
    monkeypatch.setattr(bulk, "span_array", refuse("span_array"))
    assert corner_box_counts(dist) == expected
    assert list(expected) == list(product(range(s + 1), repeat=n))


def test_spans_beyond_int64_are_counted_in_python_integers():
    # 16^16 = 2^64 words: no enumeration reaches them, and int64 would wrap
    space = Space(GF(2, 4), 5, 4)
    dist = Distribution(space, generator=build_mds_code(space, 16).basis)
    spectrum = distance_spectrum(dist, space.zero())
    assert spectrum == mds_spectrum(5, 4, 16, 16)
    assert sum(spectrum) == 2 ** 64 and all(type(w) is int for w in spectrum)
    counts = corner_box_counts(dist)
    assert counts[(0,) * 5] == 2 ** 64
    assert all(type(c) is int for c in counts.values())


def test_built_counts_and_minimum_weight_need_no_numpy():
    # 4^4 profiles and 5^6 words: the rank route, in Python integers only
    out = run_without_numpy(
        "from nrtcodes.codes import span_weight_counts\n"
        "from nrtcodes.construct import build_mds_code\n"
        "from nrtcodes.spectra import mds_spectrum\n"
        "from nrtcodes.words import Space\n"
        "code = build_mds_code(Space(gf.GF(5), 4, 3), 6)\n"
        "assert span_weight_counts(code.space, code.basis) == mds_spectrum(4, 3, 6, 5)\n"
        "print(code.min_weight('nrt'))\n"
        # 9 profiles and 2^2 words: with numpy's start to pay, no words
        "print(build_mds_code(Space(gf.GF(2), 1, 8), 2).min_weight('nrt'))\n")
    assert out.split() == ["7", "7"]


def test_spans_of_at_most_16_profiles_read_their_ranks(monkeypatch):
    # the rule's picks on small GF(2) spans of 2 rows with numpy loaded:
    # at most 27 profiles read their ranks, 2^8 profiles of 2 words count
    # the words; the rank route refuses the blocks
    monkeypatch.setattr(bulk, "_span_blocks", refuse("_span_blocks"))
    rng = np.random.default_rng(3)
    for n, s, route in ((2, 3, "ranks"), (4, 1, "ranks"), (3, 2, "ranks"), (8, 1, "words")):
        space = Space(GF(2), n, s)
        k = 2 if route == "ranks" else 1
        assert codes._route(space, k) == route
        rows = rng.integers(0, 2, size=(k, n * s)).tolist()
        words = span_array_by_passes(space.gf, rows, n * s)
        expected = np.bincount(bulk.nrt_weights(words, n, s), minlength=n * s + 1)
        assert route_counts("ranks", space, rows) == expected.tolist()
        if route == "ranks":
            assert codes.span_weight_counts(space, rows) == expected.tolist()


def test_the_route_rule_keeps_its_bounds():
    fields = {2: GF(2), 3: GF(3), 5: GF(5), 16: GF(2, 4)}
    bound = codes.ENUMERATION_BOUND
    for q, field in fields.items():
        for n, s in product(range(1, 12), (1, 2, 3, 5, 8)):
            space, profiles = Space(field, n, s), (s + 1) ** n
            for k in range(space.dim + 1):
                if profiles > bound and q ** k > bound:
                    with pytest.raises(ValueError, match="too large to count"):
                        codes._route(space, k)
                    continue
                route = codes._route(space, k)
                assert route in ("ranks", "words")
                if q ** k > bound:
                    assert route == "ranks"
                if profiles > bound:
                    assert route == "words"
    # a weight may also walk: above 2^21 of both, it must
    assert codes._route(Space(GF(2), 22, 1), 3, weight=True) in ("words", "walk")
    assert codes._route(Space(GF(2, 4), 5, 3), 10, weight=True) in ("ranks", "walk")
    for space, k in ((Space(GF(2), 30, 1), 22), (Space(GF(2, 4), 8, 8), 20)):
        assert codes._route(space, k, weight=True) == "walk"
    # a corner box enumerator above 2^21 coefficients is refused first
    space = Space(GF(2), 22, 1)
    with pytest.raises(ValueError, match="above the bound 2097152"):
        corner_box_counts(Distribution(space, generator=[[1] + [0] * 21]))


def _agreement_case(shape):
    """(space, flat rows, whether a weight is asked) of a named shape."""
    kind, q, n, s, k = shape
    field = {2: GF(2), 4: GF(2, 2), 5: GF(5), 8: GF(2, 3), 16: GF(2, 4)}[q]
    space = Space(field, n, s)
    if kind == "random":
        return space, random_code(space, k, random.Random(k)).basis, True
    if kind == "mds":
        return space, build_mds_code(space, k).basis, True
    if kind == "mds dual":
        return space, build_mds_code(space, n * s - k).dual().basis, True
    if kind == "rows":  # random rows, with their span's multiplicities
        return space, np.random.default_rng(19).integers(0, q, size=(k, n * s)).tolist(), False
    # the merged [12, 6] code of the composite build over F_5 (g = 2,
    # t = 1) or its dual, at depth 1
    code = peano.build_composite(field, 2, 2, 3, 1).code
    code = code if kind == "composite" else code.dual()
    return Space(field, code.space.dim, 1), code.basis, True


@pytest.mark.parametrize("shape", [
    ("random", 4, 6, 3, 6), ("random", 4, 6, 3, 9), ("random", 8, 8, 3, 6),
    ("random", 8, 8, 3, 7), ("mds", 16, 5, 3, 5), ("mds dual", 16, 5, 3, 10),
    ("rows", 2, 16, 1, 16), ("composite", 5, 12, 1, 6), ("composite dual", 5, 12, 1, 6)],
    ids=lambda shape: "-".join(map(str, shape)).replace(" ", "-"))
def test_every_route_gives_the_same_answer(shape):
    space, rows, weight = _agreement_case(shape)
    k, bound = len(rows), codes.ENUMERATION_BOUND
    routes = [route for route, size in (("ranks", (space.s + 1) ** space.n),
                                        ("words", space.q ** k)) if size <= bound]
    assert codes._route(space, k) in routes
    counts, corners, weights = {}, {}, {}
    for route in routes + ["walk"] * weight:
        with mock.patch.object(codes, "_route", lambda *args, **kwargs: route):
            if route != "walk":
                counts[route] = codes.span_weight_counts(space, rows)
                corners[route] = corner_box_counts(Distribution(space, generator=rows))
            if weight:
                weights[route] = LinearCode._reduced(space, rows).min_weight("nrt")
    assert len({tuple(c) for c in counts.values()}) == 1
    assert len({tuple(c.items()) for c in corners.values()}) == 1
    if weight:
        assert codes._route(space, k, weight=True) in weights
        least = next(w for w, c in enumerate(counts[routes[0]]) if w and c)
        assert set(weights.values()) == {least}


@pytest.mark.parametrize("q, n, s, k", [(5, 2, 2, 2), (2, 3, 2, 2)])
def test_minimum_weights_are_python_ints_on_both_routes(q, n, s, k):
    # every route, whichever the rule picks
    code = build_mds_code(Space({2: GF(2), 5: GF(5)}[q], n, s), k)
    for route in ("ranks", "words", "walk"):
        with mock.patch.object(codes, "_route", lambda *args, **kwargs: route):
            for metric in ("nrt", "hamming"):
                assert type(code.min_weight(metric)) is int
            assert code.min_weight("nrt") == n * s - k + 1


def test_a_long_block_is_walked_without_deep_recursion(monkeypatch):
    # 1100 digits, and the rows are unit words on the lowest 11 of them:
    # the rank stays 0 for the first 1089 top-first columns
    gf, n, s, k = GF(2), 1, 1100, 11
    space = Space(gf, n, s)
    rows = [[int(i == m) for i in range(s)] for m in range(k)]
    monkeypatch.setattr(bulk, "_span_blocks", refuse("_span_blocks"))
    hist = distance_spectrum(Distribution(space, generator=rows), space.zero())
    # the word of combination c has the weight of c's highest nonzero digit
    assert hist == [1] + [2 ** (t - 1) for t in range(1, k + 1)] + [0] * (s - k)
