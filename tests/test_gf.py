import random

import numpy as np
import pytest

from nrtcodes.gf import GF, TABLE_BOUND, default_modulus, is_prime

from _helpers import _field_tables, schoolbook_add, schoolbook_mul

SMALL_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2),
                GF(11), GF(13), GF(2, 4)]


def test_default_moduli():
    assert default_modulus(2, 2) == (1, 1, 1)       # z^2 + z + 1
    assert default_modulus(3, 2) == (1, 0, 1)       # z^2 + 1
    assert default_modulus(2, 3) == (1, 1, 0, 1)    # z^3 + z + 1


def test_add_examples():
    assert GF(2).add(1, 1) == 0
    assert GF(3).add(2, 2) == 1
    f4 = GF(2, 2)
    # base-2 digit xor: (0,1) + (1,1) = (1,0)
    assert f4.add(2, 3) == 1


def test_mul_examples():
    f4 = GF(2, 2)
    for a in f4.elements():
        assert f4.mul(a, 1) == a
    # (0,1) * (0,1) = z^2 = z + 1 modulo z^2 + z + 1
    assert f4.mul(2, 2) == schoolbook_mul(f4, 2, 2) == 3
    assert GF(3).mul(2, 2) == 1


def test_inv_examples():
    f4 = GF(2, 2)
    assert f4.inv(1) == 1
    # exhaustive search of the multiplication table
    expected = next(b for b in f4.elements() if f4.mul(2, b) == 1)
    assert f4.inv(2) == expected == 3
    assert GF(5).inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)


def test_trace_examples():
    f4 = GF(2, 2)
    assert f4.trace(0) == 0
    assert f4.trace(2) == f4.add(2, f4.mul(2, 2)) == 1
    f5 = GF(5)
    for a in f5.elements():
        assert f5.trace(a) == a


def test_label_bijection():
    f8 = GF(2, 3)
    assert f8.from_coeffs((1, 0, 1)) == 5
    assert f8.coeffs(5) == (1, 0, 1)
    f9 = GF(3, 2)
    assert f9.from_coeffs((2, 1)) == 5
    assert f9.coeffs(5) == (2, 1)
    for gf in SMALL_FIELDS:
        for m in gf.elements():
            assert gf.from_coeffs(gf.coeffs(m)) == m
    assert GF(2).from_coeffs((0,)) == 0


@pytest.mark.parametrize("gf", [g for g in SMALL_FIELDS if g.q <= 16])
def test_field_axioms_exhaustive(gf):
    els = list(gf.elements())
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in els:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in els:
                assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("gf", [g for g in SMALL_FIELDS if g.q <= 16])
def test_trace_linear_and_onto(gf):
    hit = set()
    for a in gf.elements():
        ta = gf.trace(a)
        assert ta < gf.p
        hit.add(ta)
        for b in gf.elements():
            assert gf.trace(gf.add(a, b)) == (gf.trace(a) + gf.trace(b)) % gf.p
    assert hit == set(range(gf.p))


@pytest.mark.parametrize("gf", [g for g in SMALL_FIELDS if g.q <= 16])
def test_frobenius_automorphism(gf):
    fixed = set()
    for a in gf.elements():
        fa = gf.frobenius(a)
        if fa == a:
            fixed.add(a)
        for b in gf.elements():
            assert gf.frobenius(gf.add(a, b)) == gf.add(fa, gf.frobenius(b))
            assert gf.frobenius(gf.mul(a, b)) == gf.mul(fa, gf.frobenius(b))
    assert fixed == set(range(gf.p))


def test_modulus_override():
    alt = GF(2, 3, modulus=(1, 0, 1, 1))  # z^3 + z^2 + 1
    assert alt != GF(2, 3)
    for a in alt.elements():
        if a:
            assert alt.mul(a, alt.inv(a)) == 1
    assert GF.from_description(alt.describe()) == alt


def test_degree_one_moduli_give_the_prime_field():
    from nrtcodes.codes import LinearCode, duality_ok
    from nrtcodes.words import Space

    for p, modulus in ((5, [3, 1]), (5, (4, 6)), (2, [1, 1]), (7, [0, 1])):
        alt, prime = GF(p, 1, modulus=modulus), GF(p)
        assert alt == prime and hash(alt) == hash(prime)
        assert alt.modulus == (0, 1) and alt.describe() == prime.describe() == f"{p} 1 0 1"
        assert GF.from_description(f"{p} 1 {modulus[0]} 1") == prime
        assert alt.mul_lookup == prime.mul_lookup and alt.add_lookup == prime.add_lookup
        # a code over one and its dual over the other share their field
        code = LinearCode(Space(alt, 2, 2), [[1, 1, 0, 1]])
        dual = LinearCode(Space(prime, 2, 2), code.basis).dual()
        assert duality_ok(code, dual) and duality_ok(dual, code)
    for modulus in ([3, 2], [1, 0, 1], [1]):  # not monic of degree 1
        with pytest.raises(ValueError, match="monic of degree e"):
            GF(5, 1, modulus=modulus)


def test_default_modulus_is_searched_once_per_field():
    default_modulus.cache_clear()
    for _ in range(3):
        assert GF(2, 5).modulus == (1, 0, 1, 0, 0, 1)  # z^5 + z^2 + 1
        GF(3, 4)
    assert default_modulus.cache_info().misses == 2


def test_construction_errors():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))  # z^2 + 1 = (z+1)^2 over F_2
    with pytest.raises(ValueError):
        GF(2, 17)  # above the q bound
    with pytest.raises(ValueError):
        GF(2, 2).check(4)


def test_fields_above_the_table_bound_are_refused():
    for p, e in ((5, 6), (2, 11), (1031, 1)):
        with pytest.raises(ValueError, match="exceeds the field bound 1024"):
            GF(p, e)
    assert GF(2, 10).q == TABLE_BOUND


def _oracle_pow(gf, a, m):
    out = 1
    while m:
        if m & 1:
            out = schoolbook_mul(gf, out, a)
        a = schoolbook_mul(gf, a, a)
        m >>= 1
    return out


def _oracle_trace(gf, a):
    acc = 0
    for _ in range(gf.e):
        acc = schoolbook_add(gf, acc, a)
        a = _oracle_pow(gf, a, gf.p)
    return acc


def _oracle_neg(gf, a):
    return gf.from_coeffs([-x % gf.p for x in gf.coeffs(a)])


SMALL_PRIME_POWERS = [GF(p, e) for p in range(2, 65) if is_prime(p)
                      for e in range(1, 7) if p ** e <= 64]


# GF(3, 2) uses z^2 + 1, whose root z has order 4, so z is not primitive
@pytest.mark.parametrize("gf", SMALL_PRIME_POWERS + [GF(2, 3, (1, 0, 1, 1)), GF(3, 2)],
                         ids=repr)
def test_every_table_entry_matches_schoolbook(gf):
    els = list(gf.elements())
    add = [[schoolbook_add(gf, a, b) for b in els] for a in els]
    mul = [[schoolbook_mul(gf, a, b) for b in els] for a in els]
    neg = [_oracle_neg(gf, a) for a in els]
    trace = [_oracle_trace(gf, a) for a in els]
    assert gf.add_table.tolist() == add
    assert gf.mul_table.tolist() == mul
    assert gf.neg_table.tolist() == neg
    assert gf.trace_table.tolist() == trace
    assert [[gf.add(a, b) for b in els] for a in els] == add
    assert [[gf.sub(a, neg[b]) for b in els] for a in els] == add
    assert [[gf.mul(a, b) for b in els] for a in els] == mul
    assert [gf.neg(a) for a in els] == neg
    assert [gf.trace(a) for a in els] == trace
    assert [gf.inv(a) for a in els[1:]] == [row.index(1) for row in mul[1:]]
    assert [gf.pow(a, m) for a in els for m in range(5)] == \
        [_oracle_pow(gf, a, m) for a in els for m in range(5)]


@pytest.mark.parametrize("p, e", [(3, 5), (2, 8), (31, 2), (1021, 1), (2, 10)])
def test_large_field_tables_match_schoolbook(p, e):
    gf = GF(p, e)
    rng = random.Random(p * 100 + e)
    for _ in range(2000):
        a, b = rng.randrange(gf.q), rng.randrange(1, gf.q)
        assert gf.add(a, b) == gf.add_table[a, b] == schoolbook_add(gf, a, b)
        assert gf.mul(a, b) == gf.mul_table[a, b] == schoolbook_mul(gf, a, b)
        assert gf.neg(a) == gf.neg_table[a] == _oracle_neg(gf, a)
        assert schoolbook_mul(gf, b, gf.inv(b)) == 1
    for a in rng.sample(range(gf.q), 200):
        assert gf.trace(a) == gf.trace_table[a] == _oracle_trace(gf, a)


def test_is_prime():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]


LOOKUPS = ("add_lookup", "mul_lookup", "neg_lookup", "inv_lookup", "trace_lookup")
TABLES = ("add_table", "mul_table", "neg_table", "trace_table", "coeff_table")


# every field with q <= 64 (in GF(3, 2) z has order 4); three other
# moduli, one whose root z is not primitive either (z^4 + z^3 + z^2 + z + 1
# over F_2 divides z^5 - 1); and the largest fields
@pytest.mark.parametrize("gf", SMALL_PRIME_POWERS + [
    GF(2, 3, (1, 0, 1, 1)), GF(3, 2, (2, 1, 1)), GF(2, 4, (1, 1, 1, 1, 1)),
    GF(2, 10), GF(3, 5), GF(3, 6), GF(31, 2), GF(1021)], ids=repr)
def test_lookups_and_arrays_match_the_numpy_builder(gf):
    oracle = _field_tables(gf.p, gf.e, gf.modulus)
    for name in LOOKUPS:
        assert getattr(gf, name) == oracle[name], name
    for name in TABLES:
        table = getattr(gf, name)
        assert table.dtype == np.int16 and not table.flags.writeable
        assert np.array_equal(table, oracle[name]), name
    # the arrays hold the entries of the lookups
    assert gf.add_table.tolist() == [list(row) for row in gf.add_lookup]
    assert gf.mul_table.tolist() == [list(row) for row in gf.mul_lookup]
    assert gf.neg_table.tolist() == list(gf.neg_lookup)
    assert gf.trace_table.tolist() == list(gf.trace_lookup)

