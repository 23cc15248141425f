import io
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nrtcodes import bulk
from nrtcodes.codes import (ENUMERATION_BOUND, LinearCode, box_duality_ok,
                            character_sum_report, corner_box_counts, is_mds,
                            macwilliams_n1_ok, nullspace, parity_nrt_weight,
                            rank, read_code, rref, span_is_mds,
                            weight_enum_identity_n1, weight_enumerator,
                            write_code)
from nrtcodes.construct import build_mds_code
from nrtcodes.geometry import ElementaryBox
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, nrt_weight

from _helpers import (all_subspaces, box_count, parity_weight_by_composition,
                      random_code, span_array_by_passes)

FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 8: GF(2, 3),
          9: GF(3, 2), 16: GF(2, 4)}


def test_rref_and_rank():
    gf = GF(3)
    rows = [[1, 2, 0], [1, 1, 1], [0, 0, 1]]
    red = rref(gf, rows)
    assert rank(gf, rows) == 3
    assert red == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # [2,1,0] is twice [1,2,0] over F_3
    assert rank(gf, [[1, 2, 0], [2, 1, 0]]) == 1


def test_nullspace_orthogonality():
    rng = random.Random(0)
    for gf in (GF(2), GF(3), GF(2, 2)):
        for _ in range(20):
            width = 6
            rows = [[rng.randrange(gf.q) for _ in range(width)] for _ in range(3)]
            null = nullspace(gf, rows, width)
            for nv in null:
                for row in rows:
                    acc = 0
                    for a, b in zip(row, nv):
                        acc = gf.add(acc, gf.mul(a, b))
                    assert acc == 0
            assert len(null) == width - rank(gf, rows)


def test_min_weight_examples():
    sp = Space(GF(3), 2, 2)
    whole = LinearCode.whole_space(sp)
    assert whole.min_weight("nrt") == 1
    code = build_mds_code(sp, 2)
    assert code.min_weight("nrt") == 3
    with pytest.raises(ValueError):
        LinearCode.zero(sp).min_weight()


@pytest.mark.parametrize("k", [0, 2, 4])
def test_min_weight_validates_its_arguments_at_every_size(k):
    sp = Space(GF(3), 2, 2)
    code = {0: LinearCode.zero(sp), 2: build_mds_code(sp, 2),
            4: LinearCode.whole_space(sp)}[k]
    for args, message in ((("bogus",), "unknown metric"),
                          (("nrt", "bogus"), "unknown method"),
                          (("hamming", "parity"), "only computes the NRT weight")):
        with pytest.raises(ValueError, match=message):
            code.min_weight(*args)
    if k == 4:
        for metric in ("nrt", "hamming"):
            for method in ("auto", "enumerate"):
                assert code.min_weight(metric, method) == 1
        assert code.min_weight("nrt", "parity") == 1


def test_singleton_bound():
    rng = random.Random(1)
    for gf, n, s in ((GF(2), 2, 2), (GF(3), 2, 2), (GF(2, 2), 1, 3)):
        sp = Space(gf, n, s)
        for _ in range(25):
            k = rng.randrange(1, sp.dim + 1)
            code = random_code(sp, k, rng)
            assert code.min_weight("nrt") <= sp.dim - code.k + 1


def test_is_mds():
    sp = Space(GF(3), 2, 2)
    assert is_mds(build_mds_code(sp, 2))
    low = LinearCode.from_words(sp, [((1, 0), (0, 0))])
    assert not is_mds(low)  # weight 1 < 4 - 1 + 1
    assert is_mds(LinearCode.whole_space(sp))


def test_dual_examples():
    sp = Space(GF(3), 2, 2)
    whole = LinearCode.whole_space(sp)
    assert whole.dual().k == 0
    assert LinearCode.zero(sp).dual() == whole
    code = build_mds_code(sp, 2)
    dual = code.dual()
    assert dual.k == 2 and is_mds(dual)
    rng = random.Random(2)
    for _ in range(20):
        c = random_code(sp, rng.randrange(1, 4), rng)
        assert c.dual().dual() == c
        assert c.k + c.dual().k == sp.dim
        # duality really is with respect to the reversed pairing
        for w1 in c.words()[:9]:
            for w2 in c.dual().words()[:9]:
                assert sp.inner(w1, w2) == 0


def test_parity_check_roundtrip():
    rng = random.Random(3)
    for gf in (GF(2), GF(3)):
        sp = Space(gf, 2, 3)
        for _ in range(15):
            code = random_code(sp, rng.randrange(1, sp.dim), rng)
            check = code.parity_check()
            assert check.parity_check() == code


def test_parity_weight_examples():
    gf = GF(2)
    sp = Space(gf, 2, 2)
    # first column of the first block is zero: weight 1
    check = LinearCode(sp, [[0, 1, 0, 1], [0, 0, 1, 1]])
    assert parity_nrt_weight(check) == 1
    # the whole space has an empty check matrix, which the walk refuses
    empty = LinearCode.whole_space(sp).parity_check()
    assert empty == LinearCode.zero(sp)
    with pytest.raises(ValueError, match="rank >= 1"):
        parity_nrt_weight(empty)
    # the worked MDS code has weight 3 through its check matrix too
    sp3 = Space(GF(3), 2, 2)
    code = build_mds_code(sp3, 2)
    assert parity_nrt_weight(code.parity_check()) == 3


def test_parity_weight_matches_bruteforce():
    rng = random.Random(4)
    shapes = [(2, 2, 2), (2, 2, 3), (2, 4, 2), (3, 2, 2), (3, 1, 4), (3, 3, 2)]
    for _ in range(30):
        q, n, s = rng.choice(shapes)
        sp = Space(GF(q), n, s)
        k = rng.randrange(1, n * s)
        code = random_code(sp, k, rng)
        assert parity_nrt_weight(code.parity_check()) == code.min_weight("nrt")
        assert code.min_weight("nrt", method="parity") == \
            code.min_weight("nrt", method="enumerate")


def _check_parity_weight(check, enumerate_up_to=1 << 12, rows=None):
    """The tree walk agrees with the per-composition oracle, run on `rows`
    (default the check's basis; any rows that span it have the same
    dependent column sets), and with enumeration when the code has at
    most `enumerate_up_to` words."""
    space = check.space
    oracle_check = check if rows is None else SimpleNamespace(space=space, basis=rows)
    if check.k == space.dim:  # the zero code
        for search, arg in ((parity_nrt_weight, check),
                            (parity_weight_by_composition, oracle_check)):
            with pytest.raises(ValueError, match="zero code"):
                search(arg)
        return None
    weight = parity_nrt_weight(check)
    assert weight == parity_weight_by_composition(oracle_check)
    code = check.parity_check()
    if len(code) <= enumerate_up_to:
        assert weight == code.min_weight("nrt", method="enumerate")
    return weight


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_parity_weight_matches_the_oracle_and_enumeration(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = data.draw(st.integers(1, 5))
    s = data.draw(st.integers(1, min(5, 12 // n)))
    space = Space(FIELDS[q], n, s)
    # codes of k = ns - k' <= log_q 4096 dimensions, so all are enumerated
    k_max = max(k for k in range(space.dim + 1) if q ** k <= 4096)
    rank_h = data.draw(st.integers(max(1, space.dim - k_max), space.dim))
    entry = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=space.dim, max_size=space.dim),
                              min_size=rank_h, max_size=rank_h))
    zero = data.draw(st.sets(st.integers(0, space.dim - 1), max_size=3))
    # as drawn: possibly dependent, with zero rows, out of echelon order
    rows = [[0 if c in zero else v for c, v in enumerate(row)] for row in rows]
    check = LinearCode(space, rows)
    if check.k:
        _check_parity_weight(check, rows=rows)


def test_parity_weight_edge_shapes():
    rng = random.Random(5)
    seen = set()
    for q, n, s in ((2, 1, 5), (7, 1, 3), (3, 5, 1), (9, 3, 1), (4, 1, 1), (5, 2, 2),
                    (8, 2, 3), (2, 5, 2)):
        space = Space(FIELDS[q], n, s)
        for k in sorted(k for k in {1, space.dim - 1} if 0 < k < space.dim):
            check = random_code(space, k, rng).parity_check()
            seen.add(_check_parity_weight(check) == space.dim - k + 1)
            # a zero first column in the last block is a word of weight 1
            rows = [list(r) for r in check.basis]
            for row in rows:
                row[(n - 1) * s] = 0
            check = LinearCode(space, rows)
            if 0 < check.k < space.dim:
                assert _check_parity_weight(check) == 1
        # a full-rank square H cuts out the zero code, which both searches refuse
        _check_parity_weight(LinearCode.whole_space(space))
    assert seen == {True, False}  # both MDS and non-MDS codes came up


# the sweep's certificate shapes (q, n, s, k), all beyond the enumeration bound
CERT_SHAPES = ((16, 5, 3, 8), (8, 4, 5, 10), (7, 4, 6, 12), (9, 4, 4, 8))


def _planted_code(space, k, rng):
    """A random k-dimensional code holding a word of weight ns - k, so
    not MDS."""
    n, s, q = space.n, space.s, space.q
    depths = [s] * ((space.dim - k) // s) + [(space.dim - k) % s]
    depths += [0] * (n - len(depths))
    planted = [[rng.randrange(1, q) if i == d - 1 else rng.randrange(q) if i < d else 0
                for i in range(s)] for d in depths[:n]]
    assert nrt_weight(planted) == space.dim - k
    while True:
        rows = [space.flatten(space.random_word(rng)) for _ in range(k - 1)]
        code = LinearCode(space, rows + [space.flatten(planted)])
        if code.k == k:
            return code


def test_parity_weight_of_the_benchmark_certificate_shapes():
    # codes beyond the enumeration bound: the construction's MDS code, and
    # random codes holding a planted word of weight ns - k, which are not
    rng = random.Random(6)
    for q, n, s, k in CERT_SHAPES:
        space = Space(FIELDS[q], n, s)
        mds = build_mds_code(space, k).parity_check()
        assert _check_parity_weight(mds, 0) == space.dim - k + 1
        code = _planted_code(space, k, rng)
        assert _check_parity_weight(code.parity_check(), 0) <= space.dim - k


def _blocked_nrt_weight(code):
    """The smallest nonzero weight of the NRT histogram counted over the
    codewords block by block."""
    space = code.space
    hist = np.zeros(space.dim + 1, dtype=np.int64)
    for block in bulk._span_blocks(space.gf, code.basis, space.dim):
        hist += np.bincount(bulk.nrt_weights(block, space.n, space.s),
                            minlength=space.dim + 1)
    return int(np.flatnonzero(hist[1:])[0]) + 1


def _check_rank_route_weight(code):
    """The weight read off the profile ranks agrees with the blocked count
    and with the check-matrix walk."""
    space = code.space
    assert (space.s + 1) ** space.n <= len(code) <= ENUMERATION_BOUND
    weight = code.min_weight("nrt")
    assert weight == _blocked_nrt_weight(code) == parity_nrt_weight(code.parity_check())
    return weight


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rank_route_weight_matches_enumeration_and_the_check_matrix(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, s)
    # 0 < k < ns on the rank route, with at most 2^14 words to count
    ks = [k for k in range(1, space.dim) if (s + 1) ** n <= q ** k <= 1 << 14]
    assume(ks)
    k = data.draw(st.sampled_from(ks))
    # a planted word of row weights b with b_1 + ... + b_n <= ns - k, so
    # the code is not MDS
    depths = data.draw(st.lists(st.integers(0, s), min_size=n, max_size=n))
    while sum(depths) > space.dim - k:
        depths[depths.index(max(depths))] -= 1
    depths[0] = max(depths[0], 1)
    entry = st.integers(0, q - 1)
    planted = [[data.draw(st.integers(1, q - 1)) if i == d - 1
                else data.draw(entry) if i < d else 0 for i in range(s)]
               for d in depths]
    rows = data.draw(st.lists(st.lists(entry, min_size=space.dim, max_size=space.dim),
                              min_size=k - 1, max_size=k - 1))
    code = LinearCode(space, rows + [space.flatten(planted)])
    assume(code.k == k)
    assert _check_rank_route_weight(code) <= sum(depths)


# k = 1, k = ns - 1, and (s+1)^n = q^k
@pytest.mark.parametrize("q, n, s, k", [(8, 2, 1, 1), (9, 1, 3, 1), (3, 2, 2, 3),
                                        (5, 2, 3, 5), (4, 2, 3, 2), (3, 2, 2, 2),
                                        (2, 1, 3, 2)])
def test_rank_route_weight_at_the_edges(q, n, s, k):
    space = Space(FIELDS[q], n, s)
    rng = random.Random(q * 1000 + n * 100 + s * 10 + k)
    for _ in range(5):
        assert _check_rank_route_weight(_planted_code(space, k, rng)) <= space.dim - k
    assert _check_rank_route_weight(build_mds_code(space, k)) == space.dim - k + 1


def test_is_mds_beyond_the_bound_walks_once(monkeypatch):
    from nrtcodes import codes

    walks = []
    walk = codes._dependent_profile

    def counted(space, rows, total):
        walks.append(total)
        return walk(space, rows, total)

    monkeypatch.setattr(codes, "_dependent_profile", counted)
    rng = random.Random(7)
    for q, n, s, k in CERT_SHAPES:
        space = Space(FIELDS[q], n, s)
        for code, want in ((build_mds_code(space, k), True),
                           (_planted_code(space, k, rng), False)):
            walks.clear()
            assert is_mds(code) is want
            assert walks == [k]  # one walk over the generator, at total k
            weight = parity_weight_by_composition(code.parity_check())
            assert (weight == space.dim - k + 1) is want


def test_profile_walks_of_a_thousand_columns_stay_shallow():
    # one block of 1200 columns: the walk loops down it rather than
    # recursing once per column
    space = Space(GF(2), 1, 1200)
    # unit rows at the 1100 top digits, stored least significant first
    rows = [[int(c == 1199 - r) for c in range(1200)] for r in range(1100)]
    assert span_is_mds(space, rows)
    assert not span_is_mds(space, rows[:-2] + [rows[0], rows[-1]])


def test_short_rows_are_refused_before_the_reduction():
    sp = Space(GF(2), 2, 2)
    for rows in ([[0, 0, 0, 1], [1, 0]], [[1, 0, 0, 0], [1, 0]]):
        with pytest.raises(ValueError, match="basis row length mismatch"):
            LinearCode(sp, rows)


def test_nrt_weights_match_the_per_word_weight():
    rng = np.random.default_rng(7)
    for q, n, s in ((2, 1, 1), (3, 4, 1), (5, 3, 4), (4, 2, 127), (2, 2, 128), (3, 1, 200)):
        arr = rng.integers(0, q, size=(40, n, s), dtype=np.int16)
        arr[rng.random(arr.shape) < 0.9] = 0  # high digits are zero often
        arr[:5] = 0  # all-zero words
        arr[5:10, 0] = 0  # words with a zero row
        want = [nrt_weight(tuple(map(tuple, word.tolist()))) for word in arr]
        for view in (arr, arr.reshape(len(arr), n * s)):
            got = bulk.nrt_weights(view, n, s)
            assert got.dtype == np.int64 and got.tolist() == want
    assert bulk.nrt_weights(np.zeros((0, 6), dtype=np.int16), 2, 3).shape == (0,)


def test_sub_anchor_matches_the_table_gather():
    rng = np.random.default_rng(8)
    for gf in (GF(2), GF(3), GF(2, 2), GF(3, 2)):
        arr = rng.integers(0, gf.q, size=(30, 6), dtype=np.int16)
        for anchor in ([0] * 6, arr[3].tolist(), [0] * 5 + [1]):
            want = gf.add_table[arr, gf.neg_table[np.array(anchor)][None, :]]
            assert np.array_equal(bulk.sub_anchor(gf, arr, anchor), want)
        # a zero anchor hands back the caller's array itself
        assert bulk.sub_anchor(gf, arr, (0,) * 6) is arr


def test_box_enumerator_examples():
    sp = Space(GF(2), 2, 2)
    origin = Distribution(sp, words=[sp.zero()])
    phi = corner_box_counts(origin)
    assert all(v == 1 for v in phi.values())
    assert len(phi) == (sp.s + 1) ** sp.n
    whole = Distribution(sp, words=list(sp.all_words()))
    phi_whole = corner_box_counts(whole)
    for a_vec, count in phi_whole.items():
        assert count == 2 ** (sp.dim - sum(a_vec))


def test_box_enumerator_matches_box_count():
    # multisets with repeated and non-linear points, counted box by box
    rng = random.Random(8)
    for gf, n, s in ((GF(2), 2, 2), (GF(3), 1, 3), (GF(2, 2), 3, 1), (GF(5), 2, 2)):
        sp = Space(gf, n, s)
        words = [sp.random_word(rng) for _ in range(rng.randrange(1, 12))]
        dist = Distribution(sp, words=words + words[:2])
        phi = corner_box_counts(dist)
        assert len(phi) == (s + 1) ** n
        for a_vec, count in phi.items():
            assert count == box_count(dist, ElementaryBox(a_vec, (0,) * n))


def test_box_enumerator_bound_is_checked_before_allocating(monkeypatch):
    from nrtcodes import geometry

    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(geometry, "_cumulative_counts", no_histogram)
    # 13^12 coefficients would take 170 TiB
    sp = Space(GF(2), 12, 12)
    two = Distribution(sp, words=[sp.zero(), ((1,) + (0,) * 11,) * 12])
    with pytest.raises(ValueError, match="above the bound 2097152"):
        corner_box_counts(two)
    with pytest.raises(ValueError, match="above the bound"):
        corner_box_counts(Distribution(Space(GF(2), 22, 1), words=[((0,),) * 22]))
    # 2^21 coefficients are within the bound
    with pytest.raises(AssertionError, match="histogram was allocated"):
        corner_box_counts(Distribution(Space(GF(2), 21, 1), words=[((0,),) * 21]))


def test_span_array_matches_k_pass_enumeration():
    rng = random.Random(9)
    for gf in (GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)):
        for k, width in ((0, 3), (1, 1), (2, 4), (3, 2), (4, 3)):
            if gf.q ** k > 5000:
                continue
            rows = [[rng.randrange(gf.q) for _ in range(width)] for _ in range(k)]
            arr = bulk.span_array(gf, rows, width)
            assert arr.dtype == np.int16
            assert np.array_equal(arr, span_array_by_passes(gf, rows, width))


def test_box_duality():
    sp = Space(GF(3), 2, 2)
    code = build_mds_code(sp, 2)
    assert box_duality_ok(code.distribution(), code.dual().distribution())
    rng = random.Random(5)
    for gf, n, s in ((GF(2), 2, 2), (GF(2), 1, 3), (GF(3), 2, 1)):
        spc = Space(gf, n, s)
        for _ in range(10):
            c = random_code(spc, rng.randrange(1, spc.dim), rng)
            assert box_duality_ok(c.distribution(), c.dual().distribution())


def test_weight_enumerator_examples():
    sp = Space(GF(2), 1, 2)
    origin = Distribution(sp, words=[sp.zero()])
    assert weight_enumerator(origin) == [1, 0, 0]
    whole = Distribution(sp, words=list(sp.all_words()))
    assert weight_enumerator(whole) == [1, 1, 2]


def test_weight_enum_identity_n1():
    for gf, s in ((GF(2), 2), (GF(2), 3), (GF(3), 2)):
        sp = Space(gf, 1, s)
        for code in all_subspaces(sp):
            assert weight_enum_identity_n1(code.distribution())


def test_macwilliams_n1():
    for gf, s in ((GF(2), 2), (GF(3), 2)):
        sp = Space(gf, 1, s)
        for code in all_subspaces(sp):
            assert macwilliams_n1_ok(code.distribution(),
                                     code.dual().distribution())
    sp = Space(GF(2), 2, 1)
    with pytest.raises(ValueError):
        macwilliams_n1_ok(LinearCode.zero(sp).distribution(),
                          LinearCode.whole_space(sp).distribution())


def test_character_sums():
    rng = random.Random(6)
    sp = Space(GF(2), 1, 2)
    code = LinearCode.from_words(sp, [((1, 0),)])
    rep = character_sum_report(code)
    assert rep.ok and rep.checked == 4
    for gf, n, s in ((GF(3), 2, 1), (GF(2), 2, 2), (GF(2, 2), 1, 2)):
        spc = Space(gf, n, s)
        for _ in range(5):
            c = random_code(spc, rng.randrange(1, spc.dim + 1), rng)
            assert character_sum_report(c).ok
    # every Y is checked, so spaces above 4096 words are refused
    with pytest.raises(ValueError):
        character_sum_report(LinearCode.zero(Space(GF(2), 1, 13)))


def test_v0_subspace_duality():
    # the corner-box subspaces pair up under side-exponent complement
    from nrtcodes.geometry import bounded_compositions

    for gf, n, s in ((GF(2), 2, 3), (GF(2), 3, 2), (GF(3), 2, 3), (GF(3), 3, 2)):
        sp = Space(gf, n, s)
        for total in range(n * s + 1):
            for a_vec in bounded_compositions(total, n, s):
                def v0(a):
                    rows = []
                    for j, aj in enumerate(a):
                        for i in range(s - aj):
                            flat = [0] * sp.dim
                            flat[j * s + i] = 1
                            rows.append(flat)
                    return LinearCode(sp, rows)

                a_star = tuple(s - a for a in a_vec)
                assert v0(a_vec).dual() == v0(a_star)


def test_prop_41_small():
    # box regularity of a linear distribution matches the dual weight bound
    from nrtcodes.geometry import _box_report

    sp = Space(GF(2), 2, 2)
    for code in all_subspaces(sp):
        d = code.k
        dist = code.distribution()
        dual = code.dual()
        dual_weight = dual.min_weight("nrt") if dual.k else sp.dim + 1
        for delta in range(d + 1):
            # every box of volume 2^(delta - d) holds 2^delta points
            regular = _box_report(dist, d - delta, sp.s).ok
            assert regular == (dual_weight >= d - delta + 1), (code.basis, delta)


def test_code_file_roundtrip():
    rng = random.Random(7)
    for gf in (GF(3), GF(2, 2)):
        sp = Space(gf, 2, 2)
        code = random_code(sp, 2, rng)
        buf = io.StringIO()
        write_code(buf, code, comments=["test"])
        back = read_code(io.StringIO(buf.getvalue()))
        assert back == code
    from nrtcodes.words import PointFileError
    with pytest.raises(PointFileError):
        read_code(io.StringIO("2 2 2 1\n1 0 0\n"))
    with pytest.raises(PointFileError):
        read_code(io.StringIO("2 2 2 2\n1 0 0 0\n1 0 0 0\n"))  # dependent rows
