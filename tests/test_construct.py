import random

import pytest

from nrtcodes.codes import LinearCode, is_mds, rank
from nrtcodes.construct import (_monomial_rows, build_mds_code,
                                build_optimum_distribution, default_nodes,
                                evaluation_word)
from nrtcodes.geometry import is_optimum
from nrtcodes.gf import GF
from nrtcodes.poly import INF, normalize
from nrtcodes.words import Space, nrt_weight

from _helpers import evaluation_matrix, same_multiset


def test_default_nodes():
    assert default_nodes(GF(3), 2) == (0, 1)
    assert default_nodes(GF(3), 4) == (0, 1, 2, INF)
    with pytest.raises(ValueError):
        default_nodes(GF(2), 4)


def test_evaluation_word_examples():
    sp = Space(GF(3), 2, 2)
    assert evaluation_word(sp, [], (0, 1)) == sp.zero()
    # constant polynomial: every row (0, ..., 0, 1), weight s per row
    one = evaluation_word(sp, [1], (0, 1))
    assert one == ((0, 1), (0, 1))
    assert nrt_weight(one) == sp.dim
    # f = z at nodes (0, 1): rows (f'(b), f(b))
    z = evaluation_word(sp, [0, 1], (0, 1))
    assert z == ((1, 0), (1, 1))


def test_evaluation_word_infinity_reads_reversed_coeffs():
    sp = Space(GF(2), 3, 1)
    word = evaluation_word(sp, [1], (0, 1, INF), ambient=1)
    assert word == ((1,), (1,), (1,))
    sp2 = Space(GF(2), 3, 2)
    w = evaluation_word(sp2, [1, 1], (0, 1, INF), ambient=2)
    # infinity row is (d^1 f(inf), d^0 f(inf)) = (f_0, f_1)
    assert w[2] == (1, 1)


def test_evaluation_matrix_consistency():
    rng = random.Random(0)
    for gf, n, s in ((GF(2), 3, 2), (GF(3), 4, 2), (GF(2, 2), 3, 2), (GF(5), 4, 2)):
        nodes = default_nodes(gf, n)
        sp = Space(gf, n, s)
        for k in range(1, n * s + 1):
            matrix = evaluation_matrix(gf, nodes, s, k)
            for _ in range(5):
                coeffs = [rng.randrange(gf.q) for _ in range(k)]
                f = normalize(list(coeffs))
                word = evaluation_word(sp, f, nodes, ambient=k)
                flat = sp.flatten(word)
                for pos in range(sp.dim):
                    acc = 0
                    for m in range(k):
                        acc = gf.add(acc, gf.mul(matrix[pos][m], coeffs[m]))
                    assert acc == flat[pos], (gf.q, n, s, k, pos)


def test_monomial_map_has_full_rank():
    # the evaluation map restricted to degree < t has rank t
    for gf, n, s in ((GF(2), 3, 2), (GF(3), 2, 2), (GF(2, 2), 2, 2)):
        sp = Space(gf, n, s)
        nodes = default_nodes(gf, n)
        for t in range(1, n * s + 1):
            matrix = evaluation_matrix(gf, nodes, s, t)
            cols = [[matrix[pos][m] for pos in range(sp.dim)] for m in range(t)]
            assert rank(gf, cols) == t


def test_build_mds_code():
    sp = Space(GF(3), 2, 2)
    code = build_mds_code(sp, 2)
    assert code.k == 2 and is_mds(code)
    assert code.min_weight("nrt") == 3
    # k = ns gives the whole space
    assert build_mds_code(sp, 4) == LinearCode.whole_space(sp)
    # s = 1 collapse: the repetition code over F_2 in three dimensions
    rep = build_mds_code(Space(GF(2), 3, 1), 1)
    assert sorted(rep.words()) == [((0,), (0,), (0,)), ((1,), (1,), (1,))]
    assert is_mds(rep)


def test_build_errors():
    with pytest.raises(ValueError):
        build_mds_code(Space(GF(2), 4, 1), 1)  # q < n - 1
    sp = Space(GF(3), 2, 2)
    with pytest.raises(ValueError):
        build_mds_code(sp, 0)
    with pytest.raises(ValueError):
        build_mds_code(sp, 5)
    with pytest.raises(ValueError):
        build_mds_code(sp, 2, nodes=(0, 0))


def test_build_optimum_distribution():
    sp = Space(GF(3), 2, 2)
    dist = build_optimum_distribution(sp, 2)
    assert len(dist) == 9
    assert is_optimum(dist, 2)
    # the zero polynomial maps to the origin, first in colex order
    assert dist.word(0) == sp.zero()
    # word-level identity with the code
    code = build_mds_code(sp, 2)
    assert same_multiset(dist, code.distribution())


def test_node_invariance():
    # any admissible node set produces an MDS code of the same parameters
    gf = GF(5)
    sp = Space(gf, 3, 2)
    node_choices = [(0, 1, 2), (2, 3, 4), (0, 2, 4), (1, 3, INF)]
    for nodes in node_choices:
        for k in (1, 2, 3, 4):
            code = build_mds_code(sp, k, nodes=nodes)
            assert code.k == k
            assert is_mds(code), (nodes, k)


def test_infinity_node_sweep():
    # n = q + 1 uses the INF node and still meets the bound for every k
    for gf, n, s in ((GF(2), 3, 2), (GF(3), 4, 2), (GF(2, 2), 5, 1)):
        sp = Space(gf, n, s)
        for k in range(1, n * s + 1):
            assert is_mds(build_mds_code(sp, k)), (gf.q, n, s, k)


def test_monomial_rows_match_evaluation_word_and_the_matrix():
    # the closed form C(m, r) beta^(m-r) against the generic Hasse
    # derivative and Horner of `evaluation_word`, and the test oracle
    rng = random.Random(1)
    for gf, n, s in ((GF(2), 3, 3), (GF(3), 4, 2), (GF(2, 2), 5, 2), (GF(5), 4, 3),
                     (GF(7), 3, 4), (GF(3, 2), 4, 3), (GF(2, 3), 2, 5)):
        sp = Space(gf, n, s)
        node_sets = [default_nodes(gf, n)]
        node_sets.append(tuple(rng.sample(list(range(gf.q)) + [INF], n)))
        for nodes in node_sets:
            for k in range(1, sp.dim + 1):
                rows = _monomial_rows(sp, k, nodes)
                assert rows == [list(sp.flatten(evaluation_word(sp, [0] * m + [1], nodes,
                                                                ambient=k)))
                                for m in range(k)]
                matrix = evaluation_matrix(gf, nodes, s, k)
                assert rows == [list(col) for col in zip(*matrix)]
