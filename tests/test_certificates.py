"""The rank certificate `codes.span_is_mds` against its slow oracles: box
enumeration over the span and the enumerated minimum weight.  Built
point sets and codes are decided by the certificate; these tests check
that every answer, and every witness of a "no", is the enumeration's."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrtcodes import bulk, codes, geometry
from nrtcodes.codes import LinearCode, is_mds, span_is_mds
from nrtcodes.construct import build_mds_code, build_optimum_distribution
from nrtcodes.geometry import _box_report, bounded_compositions, optimum_report
from nrtcodes.gf import GF
from nrtcodes.peano import build_composite, merge_distribution
from nrtcodes.words import Distribution, Space

from _helpers import family_report, random_code

FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 8: GF(2, 3),
          9: GF(3, 2)}


def sweep_grid():
    """The acceptance grid: q <= 5, n <= min(q + 1, 4), ns <= 8, every k."""
    for q in (2, 3, 4, 5):
        for n in range(1, min(q + 1, 4) + 1):
            for s in range(1, 9):
                if n * s <= 8:
                    for k in range(1, n * s + 1):
                        yield Space(FIELDS[q], n, s), k


def plain_copy(dist):
    """The same points as a writable set with no generator."""
    return Distribution(dist.space, array=dist.array().copy())


def enumerated(space, rows):
    """Box enumeration over the span of the rows, every family of k."""
    k = len(rows)
    arr = bulk.span_array(space.gf, rows, space.dim)
    dist = Distribution(space, array=arr.reshape(len(arr), space.n, space.s))
    return _box_report(dist, k, space.s)


def assert_three_agree(space, rows):
    k = len(rows)
    cert = span_is_mds(space, rows)
    assert cert == enumerated(space, rows).ok
    code = LinearCode(space, rows)
    if code.k < k:
        assert not cert  # dependent rows repeat every point
    elif k < space.dim:
        assert cert == (code.min_weight("nrt", method="enumerate") == space.dim - k + 1)
    else:
        assert cert
    return cert


def test_certificate_agrees_with_enumeration_over_the_sweep_grid():
    rng = random.Random(11)
    seen = set()
    for space, k in sweep_grid():
        assert assert_three_agree(space, build_mds_code(space, k).basis)
        seen.add(assert_three_agree(space, random_code(space, k, rng).basis))
    assert seen == {True, False}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_certificate_agrees_with_enumeration_on_random_rows(data):
    q = data.draw(st.sampled_from(sorted(FIELDS)))
    n = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, s)
    k_max = max(k for k in range(1, space.dim + 1) if q ** k <= 4096 or k == 1)
    k = data.draw(st.integers(1, k_max))
    entry = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=space.dim, max_size=space.dim),
                              min_size=k, max_size=k))
    # zeroed columns make codes of low weight and dependent rows likelier
    zero = data.draw(st.sets(st.integers(0, space.dim - 1), max_size=2))
    rows = [[0 if c in zero else v for c, v in enumerate(r)] for r in rows]
    cert = assert_three_agree(space, rows)
    built = Distribution.span(space, rows)
    report = optimum_report(built, k)
    assert report.ok == cert
    assert report == optimum_report(plain_copy(built), k)


def test_built_sets_keep_the_enumeration_witness():
    # a "no" of the certificate falls back to enumeration, so the first
    # failing box, its count and the expected count are unchanged
    rng = random.Random(12)
    failures = 0
    for space, k in sweep_grid():
        if space.q ** k > 4096:
            continue
        code = random_code(space, k, rng)
        built = code.distribution()
        report = optimum_report(built, k)
        assert report == optimum_report(plain_copy(built), k)
        assert report.ok == is_mds(code)
        failures += not report.ok
    assert failures > 50


def test_sets_of_dependent_rows_are_not_optimum():
    space = Space(GF(3), 2, 2)
    row = [1, 2, 0, 1]
    dist = Distribution.span(space, [row, row])
    assert not span_is_mds(space, [row, row])
    report = optimum_report(dist, 2)
    assert not report.ok and report == optimum_report(plain_copy(dist), 2)
    # more rows than coordinates are always dependent
    whole = LinearCode.whole_space(space).basis
    assert span_is_mds(space, whole)
    assert not span_is_mds(space, list(whole) + [row])
    assert span_is_mds(space, [])
    with pytest.raises(ValueError, match="row length"):
        span_is_mds(space, [[1, 0, 0]])


def test_other_depths_count_boxes():
    # the check at a coarser digit depth is that of the projection, which
    # keeps no generator and so counts boxes
    space = Space(FIELDS[4], 3, 2)
    dist = build_optimum_distribution(space, 3)
    for depth in (1, 2):
        report = optimum_report(dist.project(depth), 3)
        assert report == optimum_report(plain_copy(dist).project(depth), 3)
        assert report.ok and report == family_report(
            dist.project(depth), [(a, 1) for a in bounded_compositions(3, 3, depth)])


def test_arrays_of_built_sets_refuse_assignment():
    space = Space(GF(5), 3, 2)
    built = (build_optimum_distribution(space, 3),
             build_mds_code(space, 3).distribution(),
             Distribution.span(space, build_mds_code(space, 2).basis),
             build_composite(GF(5), 2, 2, 1, 1).dist)
    for dist in built:
        with pytest.raises(ValueError, match="read-only"):
            dist.array()[0, 0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            dist.eta_array()[-1] = 0


def test_merge_distribution_keeps_the_generator():
    gf = GF(7)
    tall = Space(gf, 4, 2)
    dist = build_optimum_distribution(tall, 3)
    merged = merge_distribution(dist, 2)
    assert merged._generator == dist._generator
    assert merged.space == Space(gf, 2, 4)
    # the merged set is optimum only for the families of the merged space
    report = optimum_report(merged, 3)
    assert report == optimum_report(plain_copy(merged), 3)
    build = build_composite(gf, 2, 3, 2, 1)
    assert build.dist._generator is not None
    assert optimum_report(build.dist, 4).ok
    assert optimum_report(plain_copy(build.dist), 4).ok


def test_spans_beyond_int64_are_decided_from_their_rows():
    # 2^65 points: len() of such a set overflows, its 65 rows do not
    space = Space(GF(2), 1, 70)
    top = Distribution.span(space, [[int(c == 69 - r) for c in range(70)]
                                    for r in range(65)])
    assert optimum_report(top, 65).ok
    # the span is the words whose 5 low digits are 0
    counts = codes.corner_box_counts(top)
    assert counts == {(a,): 2 ** max(65 - a, 0) for a in range(71)}
    assert all(type(c) is int for c in counts.values())
    low = Distribution.span(space, [[int(c == r) for c in range(70)]
                                    for r in range(65)])
    with pytest.raises(ValueError, match="too large for 64-bit box indices"):
        optimum_report(low, 65)
    assert low._array is None  # refused before the points were built


def test_echelon_check_rows_skip_the_reduction(monkeypatch):
    calls = []
    rank = codes.rank
    monkeypatch.setattr(codes, "rank", lambda *a: calls.append(1) or rank(*a))
    space = Space(GF(5), 3, 2)
    code = build_mds_code(space, 4)
    check = code.parity_check()
    assert calls == []
    assert codes.parity_nrt_weight(check) == space.dim - 4 + 1


def test_built_sets_are_decided_without_enumeration(monkeypatch):
    cases = []
    for space, k in sweep_grid():
        if k < space.dim:
            cases.append((build_mds_code(space, k), build_optimum_distribution(space, k), k))
    build = build_composite(GF(5), 2, 2, 2, 1)
    cases.append((build.code, build.dist, 4))
    cases.append((build_mds_code(Space(FIELDS[9], 4, 4), 8), None, 8))  # beyond 2^21
    # a plain copy has no generator and counts boxes; it is built before
    # the patch, as a built set makes its array on first use
    plain = plain_copy(cases[0][1])
    reached = []

    def refuse(name):
        def call(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"{name} reached")
        return call

    monkeypatch.setattr(bulk, "span_array", refuse("span_array"))
    monkeypatch.setattr(geometry, "_box_report", refuse("_box_report"))
    for code, dist, k in cases:
        assert is_mds(code)
        if dist is not None:
            assert optimum_report(dist, k).ok
    assert reached == []
    with pytest.raises(AssertionError, match="_box_report reached"):
        optimum_report(plain, cases[0][2])


def test_spectrum_optimum_line_agrees_with_enumeration(tmp_path):
    import contextlib
    import io
    import json

    from nrtcodes.cli import main
    from nrtcodes.words import write_point_set

    rng = np.random.default_rng(3)
    gf = GF(3)
    space = Space(gf, 2, 2)
    checked = set()
    for trial in range(24):
        rows = rng.integers(0, 3, size=(2, space.dim)).tolist()
        dist = plain_copy(Distribution.span(space, rows))
        if trial % 3 == 1:  # a shuffled copy of the span
            dist = Distribution(space, array=dist.array()[rng.permutation(len(dist))])
        elif trial % 3 == 2:  # a coset, not linear
            dist = Distribution(space, array=gf.add_table[dist.array(), 1])
        path = tmp_path / "d.points"
        with open(path, "w") as fh:
            write_point_set(fh, dist)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["spectrum", "--in", str(path), "--format", "json"]) == 0
        payload = json.loads(out.getvalue())
        want = optimum_report(dist, 2).ok
        assert ("formula" in payload) == want
        checked.add(want)
    assert checked == {True, False}
