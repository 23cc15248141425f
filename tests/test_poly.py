import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nrtcodes.gf import GF
from nrtcodes.poly import (INF, binom_mod, eval_poly, hasse_derivative, hermite_interpolate,
                           hyper_eval, normalize)

from _helpers import from_taylor, linear_factor_power, poly_add, poly_scale, taylor_expand


def pascal_mod(p, rows):
    tri = [[1]]
    for _ in range(rows - 1):
        prev = tri[-1]
        tri.append([1] + [(prev[i] + prev[i + 1]) % p for i in range(len(prev) - 1)] + [1])
    return tri


def test_binom_mod_matches_pascal():
    for p in (2, 3, 5):
        tri = pascal_mod(p, 12)
        for m in range(12):
            for j in range(m + 1):
                assert binom_mod(m, j, p) == tri[m][j]
        assert binom_mod(3, 5, p) == 0


def test_hasse_derivative_examples():
    f2 = GF(2)
    assert hasse_derivative(f2, [0, 0, 1], 1) == []  # C(2,1) = 2 = 0 mod 2
    f3 = GF(3)
    f = [1, 2, 0, 1]
    assert hasse_derivative(f3, f, 0) == f


def test_hasse_derivative_of_linear_powers():
    # d^j (z-b)^i = C(i,j) (z-b)^(i-j)
    for q, e in ((2, 1), (3, 1), (4, 2), (5, 1)):
        gf = GF(2, 2) if q == 4 else GF(q)
        for beta in gf.elements():
            for i in range(7):
                f = linear_factor_power(gf, beta, i)
                for j in range(i + 2):
                    lhs = hasse_derivative(gf, f, j)
                    c = binom_mod(i, j, gf.p)
                    rhs = poly_scale(gf, linear_factor_power(gf, beta, i - j), c) \
                        if j <= i else []
                    assert lhs == rhs, (q, beta, i, j)


def test_eval_at_infinity():
    f3 = GF(3)
    f = [1, 2, 1]  # 1 + 2z + z^2
    assert hyper_eval(f3, f, INF, 0, ambient=3) == 1
    assert hyper_eval(f3, f, INF, 1, ambient=3) == 2
    assert hyper_eval(f3, f, INF, 2, ambient=3) == 1
    assert hyper_eval(f3, f, INF, 3, ambient=3) == 0
    assert hyper_eval(f3, [], INF, 0, ambient=1) == 0
    assert hyper_eval(f3, [], 2, 5) == 0
    with pytest.raises(ValueError):
        hyper_eval(f3, f, INF, 0, ambient=2)


def test_taylor_expansion():
    f4 = GF(2, 2)
    rng = random.Random(1)
    for _ in range(50):
        f = normalize([rng.randrange(4) for _ in range(rng.randrange(1, 7))])
        beta = rng.randrange(4)
        values = taylor_expand(f4, f, beta)
        assert from_taylor(f4, values, beta) == f
    # expansion at the origin is the coefficient list
    f = [1, 3, 0, 2]
    assert taylor_expand(f4, f, 0) == f
    # (z-b)^i expands to a unit vector at position i
    f5 = GF(5)
    for i in range(5):
        vals = taylor_expand(f5, linear_factor_power(f5, 3, i), 3)
        assert vals == [0] * i + [1]


def test_factorial_relation_small_orders():
    # j! * d^j f = f^(j) (ordinary formal derivative) for j < p
    def formal_derivative(gf, f, times):
        for _ in range(times):
            f = normalize([gf.mul(i % gf.p, f[i]) for i in range(1, len(f))])
        return f

    rng = random.Random(2)
    for gf in (GF(2), GF(3), GF(5)):
        for _ in range(30):
            f = normalize([rng.randrange(gf.q) for _ in range(rng.randrange(1, 8))])
            for j in range(gf.p):
                fact = math.factorial(j) % gf.p
                lhs = poly_scale(gf, hasse_derivative(gf, f, j), fact)
                assert lhs == formal_derivative(gf, f, j)


def test_hermite_zero_targets():
    f3 = GF(3)
    assert hermite_interpolate(f3, [0, 1], [1, 1], [[0], [0]]) == []
    assert hermite_interpolate(f3, [0, INF], [2, 1], [[0, 0], [0]]) == []


def test_hermite_two_point_example():
    # f(0) = 1, f(1) = 2 over F_3 has the unique line f = 1 + z
    f3 = GF(3)
    f = hermite_interpolate(f3, [0, 1], [1, 1], [[1], [2]])
    assert f == [1, 1]


def test_hermite_single_node_is_taylor():
    f4 = GF(2, 2)
    rng = random.Random(3)
    for _ in range(20):
        beta = rng.randrange(4)
        t = rng.randrange(1, 6)
        targets = [rng.randrange(4) for _ in range(t)]
        f = hermite_interpolate(f4, [beta], [t], [targets])
        assert f == from_taylor(f4, targets, beta)


def test_hermite_infinity_node():
    f3 = GF(3)
    # top coefficients pinned by the INF targets
    f = hermite_interpolate(f3, [INF], [3], [[2, 1, 0]])
    assert f == [0, 1, 2]
    f = hermite_interpolate(f3, [0, INF], [2, 2], [[1, 1], [2, 2]])
    assert len(f) <= 4
    assert hyper_eval(f3, f, 0, 0) == 1
    assert hyper_eval(f3, f, 0, 1) == 1
    assert hyper_eval(f3, f, INF, 0, ambient=4) == 2
    assert hyper_eval(f3, f, INF, 1, ambient=4) == 2


def test_hermite_is_linear_in_targets():
    f5 = GF(5)
    rng = random.Random(4)
    for _ in range(20):
        nodes = rng.sample(range(5), 3) + [INF]
        mults = [rng.randrange(1, 3) for _ in nodes]
        t = sum(mults)
        tg1 = [[rng.randrange(5) for _ in range(m)] for m in mults]
        tg2 = [[rng.randrange(5) for _ in range(m)] for m in mults]
        sum_tg = [[f5.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(tg1, tg2)]
        f1 = hermite_interpolate(f5, nodes, mults, tg1)
        f2 = hermite_interpolate(f5, nodes, mults, tg2)
        fs = hermite_interpolate(f5, nodes, mults, sum_tg)
        assert fs == poly_add(f5, f1, f2)


def all_polys(gf, t):
    import itertools
    for coeffs in itertools.product(gf.elements(), repeat=t):
        yield normalize(list(coeffs))


def constraint_vector(gf, f, nodes, mults, t):
    out = []
    for beta, m in zip(nodes, mults):
        for j in range(m):
            out.append(hyper_eval(gf, f, beta, j, ambient=t))
    return tuple(out)


def node_patterns(gf, t):
    """Every way to distribute total multiplicity t over distinct nodes."""
    import itertools
    pool = list(gf.elements()) + [INF]
    for l in range(1, min(t, len(pool)) + 1):
        for nodes in itertools.combinations(pool, l):
            for mults in itertools.product(range(1, t + 1), repeat=l):
                if sum(mults) == t:
                    yield list(nodes), list(mults)


@pytest.mark.parametrize("q,t", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                 (4, 2), (4, 3), (9, 2)])
def test_full_rank_systems_are_injective(q, t):
    # q = 4 and 9 are the extension fields GF(2^2) and GF(3^2)
    gf = GF(*{4: (2, 2), 9: (3, 2)}.get(q, (q,)))
    for nodes, mults in node_patterns(gf, t):
        seen = {}
        for f in all_polys(gf, t):
            key = constraint_vector(gf, f, nodes, mults, t)
            assert key not in seen, (nodes, mults, f, seen[key])
            seen[tuple(key)] = f
        # and the solver inverts each of them exactly
        import random as _r
        rng = _r.Random(t * 100 + q)
        targets = [[rng.randrange(q) for _ in range(m)] for m in mults]
        f = hermite_interpolate(gf, nodes, mults, targets)
        flat = [v for tg in targets for v in tg]
        assert list(constraint_vector(gf, f, nodes, mults, t)) == flat


def test_overdetermined_homogeneous_only_zero():
    # more constraints than the dimension: only f = 0 satisfies them all
    gf = GF(2)
    t = 3
    nodes, mults = [0, 1, INF], [2, 1, 1]  # total 4 > 3
    for f in all_polys(gf, t):
        vals = constraint_vector(gf, f, nodes, mults, sum(mults))
        if all(v == 0 for v in vals):
            assert f == []


def test_hermite_errors():
    f3 = GF(3)
    with pytest.raises(ValueError):
        hermite_interpolate(f3, [0, 0], [1, 1], [[1], [2]])
    with pytest.raises(ValueError):
        hermite_interpolate(f3, [0, 1], [1], [[1], [2]])
    with pytest.raises(ValueError):
        hermite_interpolate(f3, [0], [0], [[]])


@pytest.mark.parametrize("nodes,targets", [([-1], [[1]]), ([5], [[1]]),
                                           ([0], [[7]]), ([0], [[-1]]),
                                           ([INF, 3], [[0], [0]])])
def test_hermite_refuses_labels_outside_the_field(nodes, targets):
    # -1 would index the field tables as the label 2 of GF(3)
    with pytest.raises(ValueError, match="out of range"):
        hermite_interpolate(GF(3), nodes, [1] * len(nodes), targets)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_hermite_meets_every_prescribed_value(data):
    gf = data.draw(st.sampled_from([GF(2, 2), GF(3, 2), GF(2, 4), GF(31)]))
    nodes = data.draw(st.lists(st.sampled_from([*gf.elements(), INF]),
                               min_size=1, max_size=4, unique=True))
    mults = data.draw(st.lists(st.integers(1, 5), min_size=len(nodes),
                               max_size=len(nodes)))
    targets = [data.draw(st.lists(st.integers(0, gf.q - 1), min_size=m, max_size=m))
               for m in mults]
    t = sum(mults)
    f = hermite_interpolate(gf, nodes, mults, targets)
    assert len(f) <= t
    # the definition of d^j f(beta) is the oracle
    for beta, values in zip(nodes, targets):
        assert [hyper_eval(gf, f, beta, j, ambient=t) for j in range(len(values))] == values


def test_eval_poly_horner():
    f9 = GF(3, 2)
    f = [4, 7, 1]
    for beta in f9.elements():
        direct = f9.add(f9.add(f[0], f9.mul(f[1], beta)),
                        f9.mul(f[2], f9.mul(beta, beta)))
        assert eval_poly(f9, f, beta) == direct


def test_inf_is_a_node_not_a_float():
    from nrtcodes.cli import _nodes_text, _parse_nodes
    from nrtcodes.construct import default_nodes

    assert not isinstance(INF, float) and repr(INF) == "INF"
    gf = GF(3)
    nodes = default_nodes(gf, 4)
    assert INF in nodes and nodes[-1] == INF and 2 != INF
    assert _nodes_text(nodes) == "0,1,2,inf"
    assert _parse_nodes(gf, _nodes_text(nodes)) == nodes
