import io
import random

import numpy as np
import pytest

from nrtcodes import bulk
from nrtcodes.codes import (LinearCode, ParityCheck, box_duality_ok,
                            character_sum_report, code_from_parity_check,
                            corner_box_counts, is_mds, macwilliams_n1_ok,
                            nullspace, parity_nrt_weight, rank, read_code,
                            rref, weight_enum_identity_n1, weight_enumerator,
                            write_code)
from nrtcodes.construct import build_mds_code
from nrtcodes.geometry import ElementaryBox, box_count
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space

from _helpers import all_subspaces, random_code, span_array_by_passes


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
            assert code_from_parity_check(check) == code


def test_parity_weight_examples():
    gf = GF(2)
    sp = Space(gf, 2, 2)
    # first column of the first block is zero: weight 1
    check = ParityCheck(sp, [[0, 1, 0, 1], [0, 0, 1, 1]])
    assert parity_nrt_weight(check) == 1
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


def test_row_basis_spans_the_rows():
    rng = random.Random(10)
    for gf, n, s in ((GF(2), 2, 3), (GF(3), 2, 2), (GF(2, 2), 1, 4), (GF(5), 3, 1),
                     (GF(3, 2), 2, 2)):
        sp = Space(gf, n, s)
        for k in range(sp.dim + 1):
            code = random_code(sp, k, rng) if k else LinearCode.zero(sp)
            flat = code.distribution().array().reshape(len(code), -1)
            shifted = gf.add_table[flat, flat[rng.randrange(len(flat))]]
            sample = flat[[rng.randrange(len(flat)) for _ in range(5)]]
            for arr in (flat, flat[::-1], shifted, sample):
                basis = bulk.row_basis(gf, arr)
                assert basis.shape[1] == sp.dim and len(basis) <= sp.dim
                assert LinearCode(sp, basis) == LinearCode(sp, arr.tolist())
                assert len(basis) == len(LinearCode(sp, basis).basis)
    assert bulk.row_basis(GF(2), np.zeros((0, 3), dtype=np.int16)).shape == (0, 3)


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
    from nrtcodes.geometry import bounded_compositions, _family_report

    sp = Space(GF(2), 2, 2)
    for code in all_subspaces(sp):
        d = code.k
        dist = code.distribution()
        dual = code.dual()
        dual_weight = dual.min_weight("nrt") if dual.k else sp.dim + 1
        for delta in range(d + 1):
            regular = all(
                _family_report(dist, a_vec, 2 ** delta).ok
                for a_vec in bounded_compositions(d - delta, sp.n, sp.s)
            )
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
