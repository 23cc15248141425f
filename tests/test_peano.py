import random

import pytest

from nrtcodes.codes import LinearCode, is_mds, own_span
from nrtcodes.construct import build_optimum_distribution
from nrtcodes.geometry import is_optimum
from nrtcodes.gf import GF
from nrtcodes.peano import (block_reverse_rows, build_composite,
                            composite_base_p_report, distribution_base_change_weights,
                            dual_transport, merge_code, merge_distribution,
                            merge_rows, merged_block_weight, optimum_base_p_bound,
                            split_rows, weight_transport,
                            word_base_change_weights)
from nrtcodes.words import Distribution, Space, nrt_weight


def test_merge_rows():
    w = ((1, 0), (1, 1))
    assert merge_rows(w, 1) == w
    # row j of a block lands at digit positions (j-1)s+1 .. js
    assert merge_rows(w, 2) == ((1, 0, 1, 1),)
    assert split_rows(merge_rows(w, 2), 2) == w
    with pytest.raises(ValueError):
        merge_rows(((1, 0), (1, 1), (0, 0)), 2)


def test_merge_roundtrip_random():
    rng = random.Random(0)
    sp = Space(GF(3), 6, 2)
    for _ in range(50):
        w = sp.random_word(rng)
        for g in (1, 2, 3, 6):
            assert split_rows(merge_rows(w, g), g) == w


def test_weight_transport_example():
    rep = weight_transport(((1, 0), (1, 1)), 2)
    assert rep.nrt_before == 3
    assert rep.nrt_after == 4  # last nonzero block row 2, weight 2 + (2-1)*2
    assert rep.hamming_before == rep.hamming_after == 3
    assert merged_block_weight(((1, 0), (1, 1))) == 4


def test_block_weight_formula_pins_the_merge_order():
    # the closed form only holds for row concatenation; a digit-major
    # interleave of the same block gives a different weight
    block = ((0, 0), (1, 0))
    assert merged_block_weight(block) == 3  # row 2 nonzero: 1 + (2-1)*2
    assert nrt_weight(merge_rows(block, 2)) == 3
    interleaved = ((block[0][0], block[1][0], block[0][1], block[1][1]),)
    assert nrt_weight(interleaved) == 2  # would violate the formula


def test_weight_transport_exhaustive_small():
    # merged weight never decreases, Hamming weight is untouched, and the
    # per-block formula is exact, over whole small spaces
    for q, g, n, s in ((2, 2, 1, 2), (2, 2, 2, 1), (3, 2, 1, 2), (2, 3, 1, 2)):
        sp = Space(GF(q), g * n, s)
        for w in sp.all_words():
            rep = weight_transport(w, g)
            assert rep.hamming_after == rep.hamming_before
            assert rep.nrt_after >= rep.nrt_before


def test_block_reverse():
    w = ((1, 0), (0, 1), (1, 1), (0, 0))
    assert block_reverse_rows(w, 1) == w
    assert block_reverse_rows(w, 2) == ((0, 1), (1, 0), (0, 0), (1, 1))
    assert block_reverse_rows(block_reverse_rows(w, 2), 2) == w


def test_merge_adjoint_identity():
    # <merge w1, merge w2> = <block_reverse w1, w2> on whole small spaces
    for q, g, n, s in ((2, 2, 1, 2), (2, 2, 2, 1), (3, 2, 1, 2)):
        tall = Space(GF(q), g * n, s)
        flat = Space(GF(q), n, g * s)
        words = list(tall.all_words())
        for w1 in words:
            for w2 in words:
                lhs = flat.inner(merge_rows(w1, g), merge_rows(w2, g))
                rhs = tall.inner(block_reverse_rows(w1, g), w2)
                assert lhs == rhs
    # without the block reversal the identity is false, so the check bites
    tall = Space(GF(2), 2, 1)
    flat = Space(GF(2), 1, 2)
    w = ((1,), (0,))
    assert flat.inner(merge_rows(w, 2), merge_rows(w, 2)) != tall.inner(w, w)


def test_merge_code_is_linear_bijection():
    rng = random.Random(1)
    sp = Space(GF(3), 4, 2)
    for _ in range(10):
        rows = [sp.flatten(sp.random_word(rng)) for _ in range(3)]
        code = LinearCode(sp, rows)
        merged = merge_code(code, 2)
        assert merged.k == code.k
        assert {tuple(map(tuple, merge_rows(w, 2))) for w in code.words()} == \
            set(merged.words())


def test_dual_transport():
    rng = random.Random(2)
    # g = 1 reduces to the plain dual
    sp = Space(GF(3), 2, 2)
    code = LinearCode(sp, [sp.flatten(sp.random_word(rng))])
    assert dual_transport(code, 1) == code.dual()
    # both routes agree on random codes
    for q, g, n, s in ((3, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 2), (2, 4, 1, 1)):
        tall = Space(GF(q), g * n, s)
        for _ in range(10):
            k = rng.randrange(1, tall.dim + 1)
            rows = [tall.flatten(tall.random_word(rng)) for _ in range(k)]
            dual_transport(LinearCode(tall, rows), g)  # raises on mismatch


def test_merge_distribution_matches_words():
    sp = Space(GF(3), 4, 1)
    dist = build_optimum_distribution(sp, 2)
    merged = merge_distribution(dist, 2)
    assert merged.space.n == 2 and merged.space.s == 2
    assert merged.words() == [merge_rows(w, 2) for w in dist.words()]


def test_merge_distribution_keeps_a_proven_files_order():
    sp = Space(GF(3), 2, 2)
    built = build_optimum_distribution(sp, 2).array()
    order = list(range(len(built)))
    random.Random(7).shuffle(order)
    shuffled = Distribution(sp, array=built[order])
    proven = own_span(shuffled)
    merged = merge_distribution(proven, 2)
    assert merged._generator == proven._generator
    assert merged.words() == merge_distribution(shuffled, 2).words() \
        == [merge_rows(w, 2) for w in shuffled.words()]


def test_composite_worked_instance():
    # q=3, g=2, n=2, s=1, t=1: merged code and dual both hit weight 3
    build = build_composite(GF(3), 2, 2, 1, 1)
    code = build.code
    assert len(code) == 9
    assert code.min_weight("nrt") == 3       # (ns-k)g + 1
    assert code.min_weight("hamming") >= 3   # (n-t)g + 1
    dual = code.dual()
    assert dual.min_weight("nrt") == 3       # kg + 1
    assert dual.min_weight("hamming") >= 3   # tg + 1
    # the merged image of an optimum distribution is optimum
    assert is_optimum(build.dist, 2)
    assert is_mds(code)


def test_composite_g1_reduction():
    from nrtcodes.construct import build_mds_code

    build = build_composite(GF(3), 1, 2, 2, 1)
    assert build.code == build.code_tall
    assert build.code == build_mds_code(Space(GF(3), 2, 2), 2)


def test_composite_errors():
    with pytest.raises(ValueError):
        build_composite(GF(3), 2, 2, 1, 2)  # t > n - 1
    with pytest.raises(ValueError):
        build_composite(GF(2), 2, 2, 1, 1)  # q < gn - 1


def test_merged_optimum_weights():
    # merged optimum distributions keep the exact NRT weight (n-t)gs + 1
    # and Hamming weight at least (n-t)g + 1
    for q, g, n, s, t in ((3, 2, 2, 1, 1), (4, 2, 2, 1, 1), (5, 2, 2, 1, 1),
                          (3, 1, 3, 1, 2), (7, 2, 3, 1, 1)):
        gf = GF(2, 2) if q == 4 else GF(q)
        build = build_composite(gf, g, n, s, t)
        code = build.code
        assert code.min_weight("nrt") == (n - t) * g * s + 1
        assert code.min_weight("hamming") >= (n - t) * g + 1


def test_base_change_word_example():
    sp = Space(GF(2, 2), 1, 2)
    rep = word_base_change_weights(sp, ((2, 0),))
    assert rep.nrt_q == 1 and rep.nrt_p == 2
    assert rep.bounds_ok
    # e = 1: both bases agree
    sp1 = Space(GF(3), 2, 2)
    rep1 = word_base_change_weights(sp1, ((1, 2), (0, 1)))
    assert rep1.nrt_q == rep1.nrt_p and rep1.hamming_q == rep1.hamming_p
    assert rep1.bounds_ok


def test_base_change_bounds_exhaustive():
    sp = Space(GF(2, 2), 2, 1)
    for w in sp.all_words():
        if w == sp.zero():
            continue
        assert word_base_change_weights(sp, w).bounds_ok


def test_optimum_distribution_base_change():
    for gf, n, s in ((GF(2, 2), 2, 2), (GF(3, 2), 2, 1), (GF(2, 2), 1, 3)):
        sp = Space(gf, n, s)
        for k in range(1, n * s + 1):
            dist = build_optimum_distribution(sp, k)
            rep = distribution_base_change_weights(dist)
            assert rep.bounds_ok
            assert rep.nrt_q == n * s - k + 1
            assert rep.nrt_p >= optimum_base_p_bound(n, s, k, gf.e)


def test_composite_base_p_reports():
    for g in (1, 2):
        build = build_composite(GF(2, 2), g, 2, 1, 1)
        rep = composite_base_p_report(build)
        assert rep.ok, rep
    rep9 = composite_base_p_report(build_composite(GF(3, 2), 2, 2, 1, 1))
    assert rep9.ok
