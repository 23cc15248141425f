"""Span enumeration in blocks: `bulk.span_array` and the weight histogram
`bulk.span_weight_histogram` against the k-pass oracle, and built sets
(`Distribution(space, generator=rows)`) that keep their generator and make their array
only when a caller needs the words."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrtcodes import bulk, cli
from nrtcodes.codes import LinearCode, is_mds
from nrtcodes.construct import build_mds_code, build_optimum_distribution
from nrtcodes.geometry import optimum_report
from nrtcodes.gf import GF
from nrtcodes.peano import build_composite, merge_distribution
from nrtcodes.spectra import distance_spectrum, mds_spectrum
from nrtcodes.words import Distribution, Space

from _helpers import counted_weight, span_array_by_passes

# (field, k) with q^k below, at and above the block of 2^14 words
SIZES = [(GF(2), 0), (GF(2), 5), (GF(2), 13), (GF(2), 14), (GF(2), 15),
         (GF(2), 16), (GF(3), 1), (GF(3), 8), (GF(3), 9), (GF(2, 2), 7),
         (GF(2, 2), 8), (GF(5), 6), (GF(5), 7), (GF(7), 5), (GF(2, 3), 5),
         (GF(3, 2), 4), (GF(3, 2), 5), (GF(17), 4)]


def test_index_dtype_holds_every_flat_index():
    assert bulk._index_dtype(181) == np.int16    # 181^2 <= 2^15
    assert bulk._index_dtype(256) == np.int32
    assert bulk._index_dtype(1024) == np.int32
    for q in (2, 128, 181, 256, 1024):
        assert q * q - 1 <= np.iinfo(bulk._index_dtype(q)).max


@pytest.mark.parametrize("e, width", [(8, 3), (10, 2)])
def test_large_fields_match_the_k_pass_enumeration(e, width):
    gf = GF(2, e)
    rng = random.Random(e)
    rows = [[rng.randrange(gf.q) for _ in range(width)] for _ in range(2)]
    arr = bulk.span_array(gf, rows, width)
    expected = span_array_by_passes(gf, rows, width)
    assert np.array_equal(arr, expected)
    n, s = (1, width) if e == 8 else (width, 1)
    hist = bulk.span_weight_histogram(gf, rows, n, s)
    assert np.array_equal(hist, np.bincount(bulk.nrt_weights(expected, n, s),
                                            minlength=width + 1))
    # Hamming counts are NRT counts at depth 1
    hist = bulk.span_weight_histogram(gf, rows, width, 1)
    assert np.array_equal(hist, np.bincount(np.count_nonzero(expected, axis=1),
                                            minlength=width + 1))


@pytest.mark.parametrize("n, s, count", [(1, 1, 1000), (1, 5, 1000), (4, 1, 1000),
                                         (3, 2, 1000), (4, 4, 1000), (2, 2, 0)])
def test_hamming_weights_count_the_nonzero_digits(n, s, count):
    # the Hamming weight is the NRT weight of the flat word at depth 1
    rng = np.random.default_rng(10 * n + s)
    arr = rng.integers(0, 4, size=(count, n * s), dtype=np.int16)
    expected = (arr.reshape(count, n, s) != 0).sum(axis=(1, 2))
    for shaped in (arr, arr.reshape(count, n, s), arr.reshape(count, n * s, 1)):
        weights = bulk.nrt_weights(shaped, n * s, 1)
        assert weights.dtype == np.int64
        assert np.array_equal(weights, expected)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_blocked_histogram_matches_the_k_pass_enumeration(data):
    gf, k = data.draw(st.sampled_from(SIZES))
    n = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 3))
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
    arr = bulk.span_array(gf, rows, width)
    eager = span_array_by_passes(gf, rows, width)
    assert arr.dtype == np.int16
    assert np.array_equal(arr, eager)
    code = LinearCode(Space(gf, n, s), rows)
    for metric, shape, weights in (("nrt", (n, s), bulk.nrt_weights(eager, n, s)),
                                   ("hamming", (width, 1), np.count_nonzero(eager, axis=1))):
        hist = bulk.span_weight_histogram(gf, rows, *shape)
        expected = np.bincount(weights, minlength=width + 1)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, expected)
        if 0 < code.k < width:
            # the code is the span without repeats; its first weight is the same
            weight = counted_weight(code, metric)
            assert weight == int(np.flatnonzero(expected[1:])[0]) + 1


def test_built_sets_make_their_array_on_first_use(monkeypatch):
    space = Space(GF(5), 3, 2)
    rows = build_mds_code(space, 3).basis
    monkeypatch.setattr(bulk, "span_array", lambda *a: pytest.fail("array built"))
    dist = Distribution(space, generator=rows)
    assert len(dist) == 125
    assert distance_spectrum(dist, space.zero()) == mds_spectrum(3, 2, 3, 5)
    assert optimum_report(dist, 3).ok
    assert merge_distribution(dist, 3)._array is None
    assert dist._array is None
    monkeypatch.undo()
    eager = span_array_by_passes(space.gf, rows, space.dim)
    arr = dist.array()
    assert arr is dist.array()
    assert np.array_equal(arr, eager.reshape(125, 3, 2))
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0, 0] = 1
    merged = merge_distribution(dist, 3)
    assert np.array_equal(merged.array().reshape(125, 6), eager)
    # a nonzero anchor reads the array, and must be a member
    assert distance_spectrum(dist, dist.word(7)) == mds_spectrum(3, 2, 3, 5)
    with pytest.raises(ValueError, match="not a member"):
        distance_spectrum(dist, ((1, 0), (0, 0), (0, 0)))  # weight 1 < 4


def test_built_sets_are_certified_without_their_array():
    for space, k in ((Space(GF(5), 4, 2), 6), (Space(GF(2, 2), 2, 4), 5),
                     (Space(GF(3), 3, 3), 2)):
        dist = build_optimum_distribution(space, k)
        assert optimum_report(dist, k).ok
        assert is_mds(build_mds_code(space, k))
        expected = mds_spectrum(space.n, space.s, k, space.q)
        assert distance_spectrum(dist, space.zero()) == expected
        assert dist._array is None
    build = build_composite(GF(5), 2, 2, 2, 1)
    assert len(build.dist) == 5 ** 4
    assert optimum_report(build.dist, 4).ok
    assert build.dist._array is None and build.dist_tall._array is None


def test_composite_generate_writes_its_span_without_building_it(tmp_path, monkeypatch,
                                                                 capsys):
    events = []
    span_array, write = bulk.span_array, cli.write_point_set

    def spy_span(gf, rows, width):
        events.append(("span", gf.q ** len(rows)))
        return span_array(gf, rows, width)

    def spy_write(fh, dist, **kwargs):
        events.append(("write", len(dist)))
        return write(fh, dist, **kwargs)

    monkeypatch.setattr(bulk, "span_array", spy_span)
    monkeypatch.setattr(cli, "write_point_set", spy_write)
    prefix = str(tmp_path / "c")
    assert cli.main(["generate", "--q", "3", "--n", "2", "--s", "5", "--g", "2",
                     "--t", "1", "--out", prefix]) == 0
    capsys.readouterr()
    # g * s * t = 10 rows: 3^10 points, more than one block
    size = 3 ** 10
    # the text comes from the rows, so the span's array is never built
    assert ("write", size) in events and ("span", size) not in events
    with open(prefix + ".points") as fh:
        assert sum(1 for _ in fh) == size + 3  # two comments and the header


def test_built_set_spectrum_peaks_far_below_its_array():
    space = Space(GF(5), 4, 2)
    dist = build_optimum_distribution(space, 8)   # 5^8 words, 6.25 MB as labels
    # a small span first, so that nothing cached on first use is counted
    distance_spectrum(Distribution(space, generator=dist.generator[:2]), space.zero())
    tracemalloc.start()
    try:
        spectrum = distance_spectrum(dist, space.zero())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectrum == mds_spectrum(4, 2, 8, 5)
    assert peak < 3 * 2 ** 20
