import io
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nrtcodes import bulk, codes
from nrtcodes.codes import (ENUMERATION_BOUND, LinearCode, _dependent_profile,
                            character_sum_report, corner_box_counts, duality_ok, is_mds,
                            rank, read_code, rref, weight_enumerator, write_code)
from nrtcodes.construct import build_mds_code
from nrtcodes.geometry import ElementaryBox
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, hamming_weight, nrt_weight

from _helpers import (all_subspaces, all_words, bounded_compositions, box_count, box_duality_ok,
                      counted_weight, macwilliams_n1_ok, parity_weight_by_composition,
                      profile_ranks_one_by_one, random_code, random_word, route_counts,
                      rref_by_columns, run_without_numpy, span_array_by_passes,
                      weight_enum_identity_n1)

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
    assert rref(gf, []) == rref_by_columns(gf, []) == [] and rank(gf, ()) == 0


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rref_matches_gauss_jordan_by_columns(data):
    gf = data.draw(st.sampled_from([*FIELDS.values(), GF(2, 8)]))
    width = data.draw(st.integers(0, 7))
    # up to twice as many rows as columns, so often more rows than columns
    count = data.draw(st.integers(0, 2 * width + 2))
    entry = st.integers(0, gf.q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                              min_size=count, max_size=count))
    # zero rows, and rows that repeat a multiple of another
    for _ in range(data.draw(st.integers(0, 2)) if count else 0):
        rows[data.draw(st.integers(0, count - 1))] = [0] * width
    for _ in range(data.draw(st.integers(0, 2)) if count > 1 else 0):
        i, j = data.draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2,
                                  unique=True))
        c = data.draw(st.integers(0, gf.q - 1))
        rows[j] = [gf.mul(c, v) for v in rows[i]]
    # as lists, tuples or numpy int16 rows: the output holds Python ints
    form = data.draw(st.sampled_from(["list", "tuple", "int16"]))
    given_rows = {"list": rows, "tuple": [tuple(r) for r in rows],
                  "int16": np.array(rows, dtype=np.int16).reshape(count, width)}[form]
    expected = rref_by_columns(gf, rows)
    reduced = rref(gf, given_rows)
    assert reduced == expected
    assert all(type(v) is int for row in reduced for v in row)
    assert rank(gf, given_rows) == len(expected)
    if width:
        space = Space(gf, 1, width)
        code, plain = LinearCode(space, given_rows), LinearCode(space, rows)
        assert all(type(v) is int for row in code.basis for v in row)
        assert code == plain and hash(code) == hash(plain)


def test_nullspace_orthogonality():
    rng = random.Random(0)
    for gf in (GF(2), GF(3), GF(2, 2)):
        for _ in range(20):
            width = 6
            space = Space(gf, 2, 3)
            rows = [[rng.randrange(gf.q) for _ in range(width)] for _ in range(3)]
            null = LinearCode(space, rows).parity_check().basis
            for nv in null:
                for row in rows:
                    acc = 0
                    for a, b in zip(row, nv):
                        acc = gf.add(acc, gf.mul(a, b))
                    assert acc == 0
            assert len(null) == width - rank(gf, rows)


def _oracle_complement(gf, rows, width):
    """RREF basis of {x : rows . x = 0}, by Gauss-Jordan on the columns
    of [rows^T | I]: the rows whose left part reduces to zero carry, in
    their right part, the combinations of columns that vanish."""
    aug = [[row[c] for row in rows] + [int(c == i) for i in range(width)]
           for c in range(width)]
    null = [r[len(rows):] for r in rref_by_columns(gf, aug) if not any(r[:len(rows)])]
    return rref_by_columns(gf, null)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_dual_and_check_bases_match_the_oracle_complement(data):
    q = data.draw(st.sampled_from(sorted(FIELDS)))
    n = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, data.draw(st.integers(1, 12 // n)))
    k = data.draw(st.integers(0, space.dim))  # the zero code and the whole space too
    code = random_code(space, k, random.Random(data.draw(st.integers(0, 2 ** 32))))
    plain = _oracle_complement(space.gf, code.basis, space.dim)
    assert len(plain) == space.dim - k
    assert [list(r) for r in code.parity_check().basis] == plain
    # the reversed pairing: each block of a plain complement row reversed
    dual = [[v for row in space.unflatten(r) for v in reversed(row)] for r in plain]
    assert [list(r) for r in code.dual().basis] == rref_by_columns(space.gf, dual)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_is_mds_of_a_code_and_its_dual_match_the_oracle_weights(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    n = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, data.draw(st.integers(2 if n == 1 else 1, 12 // n)))
    dim, k = space.dim, data.draw(st.integers(1, space.dim - 1))
    # MDS codes of the construction as well as random codes, which seldom are
    if q >= n - 1 and data.draw(st.booleans()):
        code = build_mds_code(space, k)
    else:
        code = random_code(space, k, random.Random(data.draw(st.integers(0, 2 ** 32))))
    dual = code.dual()
    # the weights of C and its dual, each by composition over a check code
    weight = parity_weight_by_composition(code.parity_check())
    weight_dual = parity_weight_by_composition(dual.parity_check())
    assert (weight == dim - k + 1) is (weight_dual == k + 1)
    # whichever side `is_mds` walks, both answer the oracle
    assert is_mds(code) is is_mds(dual) is (weight == dim - k + 1)
    assert code.min_weight("nrt", "parity") == weight
    assert dual.min_weight("nrt", "parity") == weight_dual


def test_the_zero_code_and_the_whole_space_are_each_others_dual():
    for space in (Space(GF(3), 2, 2), Space(GF(2), 1, 3), Space(GF(2, 2), 3, 1)):
        zero, whole = LinearCode.zero(space), LinearCode.whole_space(space)
        eye = [[int(c == i) for c in range(space.dim)] for i in range(space.dim)]
        assert zero == LinearCode(space, []) and hash(zero) == hash(LinearCode(space, []))
        assert whole == LinearCode(space, eye) and hash(whole) == hash(LinearCode(space, eye))
        assert whole.dual() == zero and zero.dual() == whole
        assert is_mds(whole)
        with pytest.raises(ValueError, match="zero code"):
            is_mds(zero)


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
                          (("nrt", "enumerate"), "unknown method")):
        with pytest.raises(ValueError, match=message):
            code.min_weight(*args)
    if k == 0:
        with pytest.raises(ValueError, match="zero code"):
            code.min_weight("hamming", "parity")
    else:
        # every method answers both metrics: the MDS [4, 2] code has NRT
        # weight 3 and a word ((0, 1), (0, 1)) of Hamming weight 2
        weights = {2: {"nrt": 3, "hamming": 2}, 4: {"nrt": 1, "hamming": 1}}[k]
        for metric, weight in weights.items():
            assert counted_weight(code, metric) == weight
            for method in ("auto", "parity"):
                assert code.min_weight(metric, method) == weight


def test_hamming_weight_beyond_the_bound_reads_the_check_matrix():
    # 2^22 words: both weights come from the check matrix, the Hamming
    # weight (1, a unit word of the low digits) at depth 1
    code = build_mds_code(Space(GF(2), 1, 30), 22)
    for method in ("auto", "parity"):
        assert code.min_weight("hamming", method) == 1
    # 2^30 profiles and 2^22 words: no count of the span is within bounds
    assert codes._route(Space(GF(2), 30, 1), 22, weight=True) == "walk"
    with pytest.raises(ValueError, match="too large to count"):
        counted_weight(code, "hamming")
    assert code.min_weight("nrt") == 9


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_hamming_weight_of_every_method_is_the_least_nonzero_count(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    n = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, data.draw(st.integers(2 if n == 1 else 1, 8 // n)))
    k = data.draw(st.integers(1, max(k for k in range(1, space.dim) if q ** k <= 4096)))
    if q >= n - 1 and data.draw(st.booleans()):
        code = build_mds_code(space, k)
    else:
        code = random_code(space, k, random.Random(data.draw(st.integers(0, 2 ** 32))))
    counts = np.count_nonzero(code.words_array(), axis=1)
    least = int(counts[counts > 0].min())
    assert counted_weight(code, "hamming") == least
    for method in ("auto", "parity"):
        assert code.min_weight("hamming", method) == least


def test_composite_hamming_weights_read_no_profile_ranks(monkeypatch):
    # at depth 1 the [12, 6] code and its dual have 2^12 profiles, 5^6
    # words and 2510 profiles to walk: the rule walks the check matrix's
    # columns, and reads no profile ranks
    from nrtcodes.peano import build_composite

    code = build_composite(GF(5), 2, 2, 3, 1).code
    monkeypatch.setattr(codes, "_profile_ranks",
                        lambda *a: pytest.fail("profile ranks read"))
    assert code.min_weight("hamming") == 3
    assert code.dual().min_weight("hamming") == 4


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
    assert _dependent_profile(sp, check.basis, check.k, 0) == 1
    # the whole space has an empty check matrix
    empty = LinearCode.whole_space(sp).parity_check()
    assert empty == LinearCode.zero(sp)
    # the worked MDS code has weight 3 through its check matrix too
    sp3 = Space(GF(3), 2, 2)
    code = build_mds_code(sp3, 2)
    check = code.parity_check()
    assert _dependent_profile(sp3, check.basis, check.k, 0) == 3
    assert code.min_weight("nrt", method="parity") == 3


def test_parity_weight_matches_bruteforce():
    rng = random.Random(4)
    shapes = [(2, 2, 2), (2, 2, 3), (2, 4, 2), (3, 2, 2), (3, 1, 4), (3, 3, 2)]
    for _ in range(30):
        q, n, s = rng.choice(shapes)
        sp = Space(GF(q), n, s)
        k = rng.randrange(1, n * s)
        code = random_code(sp, k, rng)
        check = code.parity_check()
        assert _dependent_profile(sp, check.basis, check.k, 0) == code.min_weight("nrt")
        assert code.min_weight("nrt", method="parity") == counted_weight(code)


def _check_parity_weight(check, enumerate_up_to=1 << 12, rows=None):
    """The tree walk over `rows` (default the check's basis; any rows that
    span it have the same dependent column sets) agrees with the
    per-composition oracle on them, with `min_weight`'s parity route over
    the complement rows of the code the check cuts out, and with
    enumeration when that code has at most `enumerate_up_to` words."""
    space = check.space
    rows = check.basis if rows is None else rows
    oracle_check = SimpleNamespace(space=space, basis=rows)
    code = check.parity_check()
    if check.k == space.dim:  # the zero code
        for search in (lambda: code.min_weight("nrt", method="parity"),
                       lambda: parity_weight_by_composition(oracle_check)):
            with pytest.raises(ValueError, match="zero code"):
                search()
        return None
    weight = _dependent_profile(space, rows, check.k, 0)
    assert weight == parity_weight_by_composition(oracle_check)
    assert weight == code.min_weight("nrt", method="parity")
    if len(code) <= enumerate_up_to:
        assert weight == counted_weight(code)
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
        rows = [space.flatten(random_word(space, rng)) for _ in range(k - 1)]
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
    """The weight read off the profile ranks agrees with the blocked count,
    with the check-matrix walk and with the route `min_weight` picks."""
    space = code.space
    assert (space.s + 1) ** space.n <= len(code) <= ENUMERATION_BOUND
    counts = route_counts("ranks", space, code.basis)
    weight = next(w for w in range(1, space.dim + 1) if counts[w])
    assert weight == _blocked_nrt_weight(code) == code.min_weight("nrt", method="parity")
    assert weight == code.min_weight("nrt")
    return weight


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rank_route_weight_matches_enumeration_and_the_check_matrix(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, s)
    # 0 < k < ns, no more profiles than words and at most 2^14 words:
    # ranks, words and the walk are all cheap to cross-check
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

    def counted(space, rows, total, enough):
        walks.append(total)
        return walk(space, rows, total, enough)

    monkeypatch.setattr(codes, "_dependent_profile", counted)
    rng = random.Random(7)
    for q, n, s, k in CERT_SHAPES:
        space = Space(FIELDS[q], n, s)
        for code, want in ((build_mds_code(space, k), True),
                           (_planted_code(space, k, rng), False)):
            walks.clear()
            assert is_mds(code) is want
            # one walk, over the generator at total k or over the
            # complement at total ns - k, whichever is smaller
            assert walks == [min(k, space.dim - k)]
            # the dual's weight is one walk over its complement at total k
            walks.clear()
            weight = code.dual().min_weight("nrt", method="parity")
            assert (weight == k + 1) is want
            assert walks == [k]
            check = code.parity_check()
            weight = parity_weight_by_composition(check)
            assert (weight == space.dim - k + 1) is want
            # and the weight is one walk over the check matrix, at total k'
            walks.clear()
            assert code.min_weight("nrt", method="parity") == weight
            assert walks == [check.k]


def test_mds_walks_push_only_profiles_that_reach_the_walked_total(monkeypatch):
    from itertools import product

    from nrtcodes import codes

    def reach(n, s, total):
        # a profile of total <= `total` whose last nonzero block is j is
        # pushed when blocks j, ..., n - 1 can bring it to `total`
        count = 0
        for depths in product(range(s + 1), repeat=n):
            if 0 < sum(depths) <= total:
                j = max(i for i, d in enumerate(depths) if d)
                count += sum(depths[:j]) + (n - j) * s >= total
        return count

    built = [build_mds_code(Space(FIELDS[q], n, s), k) for q, n, s, k in CERT_SHAPES]
    pushes, push = [], codes._push

    def counted(*args):
        pushes.append(1)
        return push(*args)

    monkeypatch.setattr(codes, "_push", counted)
    counts = []
    for code in built:
        n, s, dim, k = code.space.n, code.space.s, code.space.dim, code.k
        pushes.clear()
        assert is_mds(code)
        # the decision walks the smaller side, at total min(k, ns - k)
        assert len(pushes) == reach(n, s, min(k, dim - k))
        counts.append(len(pushes))
        # the weight of the MDS dual: the first walk finds no dependent
        # profile up to total k, and no second walk follows
        dual = code.dual()
        pushes.clear()
        assert dual.min_weight("nrt", method="parity") == k + 1
        assert len(pushes) == reach(n, s, k)
    assert counts == [403, 545, 979, 274]


# the row operations of `is_mds` at CERT_SHAPES when the tie shapes walked
# the basis block-reversed only, its unit columns first
BLOCK_REVERSED_ROW_OPS = (662, 2578, 5855, 1095)


def test_mds_walks_over_the_turned_basis_reduce_against_its_unit_columns_last(monkeypatch):
    from nrtcodes import codes

    built = [build_mds_code(Space(FIELDS[q], n, s), k) for q, n, s, k in CERT_SHAPES]
    counts = {"mul": 0, "push": 0}
    lookups, push = codes._lookups, codes._push

    class CountedRows(tuple):
        def __getitem__(self, c):
            counts["mul"] += 1
            return super().__getitem__(c)

    def counted_lookups(gf):
        add, mul, neg, inv = lookups(gf)
        return add, CountedRows(mul), neg, inv

    def counted_push(*args):
        counts["push"] += 1
        return push(*args)

    monkeypatch.setattr(codes, "_lookups", counted_lookups)
    monkeypatch.setattr(codes, "_push", counted_push)
    for code, before in zip(built, BLOCK_REVERSED_ROW_OPS):
        counts.update(mul=0, push=0)
        assert is_mds(code)
        # every push of an MDS walk leaves a column, whose clearing row it
        # looks up once; every other lookup is one row operation
        row_ops = counts["mul"] - counts["push"]
        if 2 * code.k == code.space.dim:
            # a tie shape walks the basis turned end to end
            assert 2 * row_ops <= before
        else:  # the complement rows, walked as they were
            assert row_ops == before


def _oriented_rows(data, space):
    """Rows for the orientation checks: k from 0 to ns, some columns
    zeroed, and at times one row a combination of two others."""
    gf, dim = space.gf, space.dim
    k = data.draw(st.one_of(st.sampled_from([0, dim]), st.integers(0, dim)))
    entry = st.integers(0, gf.q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                              min_size=k, max_size=k))
    for c in data.draw(st.sets(st.integers(0, dim - 1), max_size=dim // 2)):
        for row in rows:
            row[c] = 0
    if k > 2 and data.draw(st.booleans()):
        i, j, m = data.draw(st.lists(st.integers(0, k - 1), min_size=3, max_size=3,
                                     unique=True))
        times = gf.mul_lookup[data.draw(st.integers(1, gf.q - 1))]
        rows[m] = [gf.add_lookup[times[a]][b] for a, b in zip(rows[i], rows[j])]
    return rows


# shapes with one coordinate (n = 1) and with one digit (s = 1), where the
# block reverser is `tuple`, and a few with both above 1
ORIENTED_SHAPES = ([(1, s) for s in range(1, 7)] + [(n, 1) for n in range(2, 7)]
                   + [(n, s) for n in range(2, 5) for s in range(2, 5)])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rows_turned_end_to_end_keep_every_profile_answer(data):
    from nrtcodes import codes

    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    n, s = data.draw(st.sampled_from(ORIENTED_SHAPES))
    space = Space(FIELDS[q], n, s)
    rows = _oriented_rows(data, space)
    assert codes._profile_ranks(space, rows) == profile_ranks_one_by_one(space, rows)
    if not rows:
        return  # a walk reduces columns of at least one row
    # the top digits of each block, in block order and in reverse block order
    flipped = list(map(codes._block_reverser(n, s), rows))
    turned = codes._turned(rows)
    try:
        least = parity_weight_by_composition(SimpleNamespace(space=space, basis=flipped))
    except ValueError:  # every prefix profile is independent
        least = space.dim + 1
    for total in range(space.dim + 1):
        # the least dependent total up to `total`, else `total` + 1
        exact = min(least, total + 1)
        for enough in range(total + 2):
            for walked in (flipped, turned):
                found = _dependent_profile(space, walked, total, enough)
                if exact > enough:
                    assert found == exact
                else:  # the walk may end at any dependent total up to `enough`
                    assert exact <= found <= enough


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_dependent_profile_answers_the_least_dependent_total(data):
    from nrtcodes.codes import _dependent_profile

    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    space = Space(FIELDS[q], data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    # raw rows: dependent, zero or out of echelon order, as they come
    word = st.lists(st.integers(0, q - 1), min_size=space.dim, max_size=space.dim)
    rows = data.draw(st.lists(word, min_size=1, max_size=space.dim))
    total = data.draw(st.integers(0, space.dim))
    enough = data.draw(st.integers(0, total + 1))
    try:
        least = parity_weight_by_composition(SimpleNamespace(space=space, basis=rows))
    except ValueError:  # every prefix profile is independent
        least = space.dim + 1
    least = min(least, total + 1)
    found = _dependent_profile(space, rows, total, enough)
    if least > enough:
        assert found == least
    else:  # the walk may end at any dependent total up to `enough`
        assert least <= found <= enough


def test_profile_walks_of_a_thousand_columns_stay_shallow():
    # one block of 1200 columns: the walk loops down it rather than
    # recursing once per column
    space = Space(GF(2), 1, 1200)
    # unit rows at the 1100 top digits, stored least significant first
    rows = [[int(c == 1199 - r) for c in range(1200)] for r in range(1100)]
    code = LinearCode(space, rows)
    assert code.k == len(rows) and is_mds(code)
    dependent = LinearCode(space, rows[:-2] + [rows[0], rows[-1]])
    assert dependent.k < len(rows) and not is_mds(dependent)


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


def test_depth_one_weights_match_the_per_word_hamming_weight():
    # a Hamming weight is the NRT weight of the flat word at depth 1
    rng = np.random.default_rng(9)
    for q, n, s, count in ((2, 1, 1, 30), (3, 4, 2, 40), (5, 3, 4, 40), (16, 5, 3, 50),
                           (2, 60, 1, 40), (7, 1, 200, 20), (4, 2, 3, 0)):
        arr = rng.integers(0, q, size=(count, n, s), dtype=np.int16)
        arr[rng.random(arr.shape) < 0.7] = 0
        arr[:3] = 0  # all-zero words
        want = [hamming_weight(tuple(map(tuple, word.tolist()))) for word in arr]
        for view in (arr, arr.reshape(count, n * s), arr.reshape(count, n * s, 1)):
            got = bulk.nrt_weights(view, n * s, 1)
            assert got.shape == (count,) and got.tolist() == want


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
    whole = Distribution(sp, words=list(all_words(sp)))
    phi_whole = corner_box_counts(whole)
    for a_vec, count in phi_whole.items():
        assert count == 2 ** (sp.dim - sum(a_vec))


def test_box_enumerator_matches_box_count():
    # multisets with repeated and non-linear points, counted box by box
    rng = random.Random(8)
    for gf, n, s in ((GF(2), 2, 2), (GF(3), 1, 3), (GF(2, 2), 3, 1), (GF(5), 2, 2)):
        sp = Space(gf, n, s)
        words = [random_word(sp, rng) for _ in range(rng.randrange(1, 12))]
        dist = Distribution(sp, words=words + words[:2])
        phi = corner_box_counts(dist)
        assert len(phi) == (s + 1) ** n
        for a_vec, count in phi.items():
            assert count == box_count(dist, ElementaryBox(a_vec, (0,) * n))


def test_box_enumerator_bound_is_checked_before_allocating(monkeypatch):
    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(bulk, "_cumulative_counts", no_histogram)
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


def test_duality_ok_agrees_with_the_corner_counts():
    # every pair of complementary dimension; formally dual codes pass too,
    # so a non-dual pair is not always refused
    formally_dual = {}
    for q, n, s in ((2, 1, 2), (2, 2, 1), (2, 1, 3), (3, 1, 2)):
        sp = Space(FIELDS[q], n, s)
        codes = all_subspaces(sp)
        passed = 0
        for c in codes:
            dual = c.dual()
            for d in codes:
                if c.k + d.k != sp.dim:
                    continue
                ok = duality_ok(c, d)
                assert ok == box_duality_ok(c.distribution(), d.distribution())
                assert ok or d != dual
                passed += ok and d != dual
        formally_dual[q, n, s] = passed
    assert formally_dual == {(2, 1, 2): 2, (2, 2, 1): 0, (2, 1, 3): 28, (3, 1, 2): 6}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_duality_ok_holds_for_random_codes_and_their_duals(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = data.draw(st.integers(1, 4))
    space = Space(FIELDS[q], n, data.draw(st.integers(1, 12 // n)))
    k = data.draw(st.integers(0, space.dim))  # the zero code and the whole space too
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    code = random_code(space, k, rng)
    dual = code.dual()
    assert duality_ok(code, dual) and duality_ok(dual, code)
    if q ** space.dim <= 1 << 12:
        # against another code of the dual's dimension, by corner counts
        other = random_code(space, space.dim - k, rng)
        assert duality_ok(code, other) == box_duality_ok(code.distribution(),
                                                          other.distribution())


def test_duality_ok_refuses_a_wrong_dual():
    sp = Space(GF(2), 1, 2)
    code = LinearCode(sp, [[1, 0]])
    assert code.dual() == code and duality_ok(code, code)
    assert not duality_ok(code, LinearCode(sp, [[0, 1]]))
    # a wrong space, or a wrong dimension
    assert not duality_ok(code, LinearCode(Space(GF(2), 2, 1), [[1, 0]]))
    assert not duality_ok(code, LinearCode(Space(GF(3), 1, 2), [[1, 0]]))
    assert not duality_ok(code, LinearCode.zero(sp))
    assert not duality_ok(code, LinearCode.whole_space(sp))


def test_duality_ok_needs_no_numpy():
    out = run_without_numpy("from nrtcodes.codes import LinearCode, duality_ok\n"
                            "from nrtcodes.words import Space\n"
                            "for field in (gf.GF(5), gf.GF(2, 2)):\n"
                            "    space = Space(field, 2, 2)\n"
                            "    code = LinearCode(space, [[1, 2, 0, 1], [0, 1, 1, 3]])\n"
                            "    print(duality_ok(code, code.dual()))\n")
    assert out == "True\nTrue\n"


def test_weight_enumerator_examples():
    sp = Space(GF(2), 1, 2)
    origin = Distribution(sp, words=[sp.zero()])
    assert weight_enumerator(origin) == [1, 0, 0]
    whole = Distribution(sp, words=list(all_words(sp)))
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
