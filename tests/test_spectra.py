import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nrtcodes.construct import build_optimum_distribution
from nrtcodes.gf import GF
from nrtcodes.spectra import (ball_packing_ok, ball_size, composition_count,
                              distance_spectrum, mds_first_weight,
                              mds_next_weight, mds_spectrum, mds_spectrum_alt,
                              net_excess_weight, net_spectrum, net_spectrum_alt,
                              net_spectrum_tail, nets_exist, sphere_size,
                              weak_composition_count)
from nrtcodes.words import Distribution, Space, nrt_weight, row_weight


def compositions_brute(parts, total, bound):
    return sum(1 for c in itertools.product(range(1, bound + 1), repeat=parts)
               if sum(c) == total) if parts else (1 if total == 0 else 0)


def test_composition_count():
    assert composition_count(0, 0, 3) == 1
    assert composition_count(0, 2, 3) == 0
    assert composition_count(2, 3, 2) == 2  # 1+2 and 2+1
    for parts in range(5):
        for total in range(9):
            for bound in (1, 2, 3):
                assert composition_count(parts, total, bound) == \
                    compositions_brute(parts, total, bound)
    # bound 1 collapses to the Kronecker delta
    for l in range(6):
        for r in range(6):
            assert composition_count(l, r, 1) == (1 if l == r else 0)


def test_weak_composition_count():
    assert weak_composition_count(3, 0, 4) == 1
    assert weak_composition_count(2, 2, 2) == 3  # (0,2),(1,1),(2,0)
    for n in range(1, 5):
        for r in range(9):
            brute = sum(1 for c in itertools.product(range(0, 3), repeat=n)
                        if sum(c) == r)
            assert weak_composition_count(n, r, 2) == brute
            # 0/1 vectors with r ones
            assert weak_composition_count(n, r, 1) == math.comb(n, r)


def brute_sphere(q, n, s, gf):
    sp = Space(gf, n, s)
    hist = [0] * (n * s + 1)
    for w in sp.all_words():
        hist[nrt_weight(w)] += 1
    return hist


def test_sphere_size():
    assert sphere_size(0, 2, 3, 5) == 1
    assert sphere_size(2, 1, 3, 2) == 2
    for q, gf in ((2, GF(2)), (3, GF(3))):
        for n in (1, 2):
            for s in (1, 2, 3):
                hist = brute_sphere(q, n, s, gf)
                for r in range(n * s + 1):
                    assert sphere_size(r, n, s, q) == hist[r]
                assert sum(hist) == q ** (n * s)
    with pytest.raises(ValueError):
        sphere_size(7, 2, 3, 2)


def test_fragment_decomposition():
    # a point lies on the radius-r sphere iff it sits in a fragment with
    # row weights summing to r, fragments being real interval products
    gf = GF(2)
    sp = Space(gf, 2, 2)
    q, s = 2, 2
    intervals = [(Fraction(0), Fraction(1, q ** s))] + [
        (Fraction(1, q ** (s - b + 1)), Fraction(1, q ** (s - b)))
        for b in range(1, s + 1)
    ]
    for w in sp.all_words():
        pt = sp.word_to_point(w)
        fragment = tuple(
            next(b for b, (lo, hi) in enumerate(intervals) if lo <= x < hi)
            for x in pt
        )
        assert sum(fragment) == nrt_weight(w)
        assert fragment == tuple(row_weight(r) for r in w)


def test_fragment_counts():
    # fragments with l nonzero sides and side sum r number C(n,l)*sigma
    for n in range(1, 5):
        for s in range(1, 5):
            for r in range(n * s + 1):
                for l in range(n + 1):
                    brute = sum(
                        1 for b in itertools.product(range(s + 1), repeat=n)
                        if sum(b) == r and sum(1 for x in b if x) == l)
                    assert brute == math.comb(n, l) * composition_count(l, r, s)


def test_ball_is_union_of_boxes():
    # weight <= t iff the point lies in a corner box with complement side sum t
    from nrtcodes.geometry import bounded_compositions
    gf = GF(2)
    sp = Space(gf, 2, 2)
    s = 2
    for w in sp.all_words():
        for t in range(5):
            in_union = any(
                all(all(w[j][s - 1 - i] == 0 for i in range(s - a))
                    for j, a in enumerate(a_vec))
                for a_vec in bounded_compositions(t, 2, s)
            )
            assert in_union == (nrt_weight(w) <= t)


def test_distance_spectrum_basics():
    sp = Space(GF(2), 2, 2)
    single = Distribution(sp, words=[sp.zero()])
    assert distance_spectrum(single, sp.zero()) == [1, 0, 0, 0, 0]
    whole = Distribution(sp, words=list(sp.all_words()))
    spec = distance_spectrum(whole, sp.zero())
    assert spec == [sphere_size(r, 2, 2, 2) for r in range(5)]
    with pytest.raises(ValueError):
        distance_spectrum(single, ((1, 0), (0, 0)))
    empty = Distribution(sp, array=np.zeros((0, 2, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="anchor is not a member"):
        distance_spectrum(empty, sp.zero())


def test_mds_spectrum_against_bruteforce():
    for gf, n, s in ((GF(3), 2, 2), (GF(2), 2, 2), (GF(2, 2), 1, 3),
                     (GF(2), 3, 2), (GF(2, 2), 2, 4)):
        q = gf.q
        sp = Space(gf, n, s)
        for k in range(1, n * s + 1):
            dist = build_optimum_distribution(sp, k)
            brute = distance_spectrum(dist, sp.zero())
            assert brute == mds_spectrum(n, s, k, q), (q, n, s, k)
            assert brute == mds_spectrum_alt(n, s, k, q)


def test_mds_spectrum_of_the_zero_code():
    for n, s, q in ((1, 2, 2), (2, 3, 3), (3, 1, 4)):
        assert mds_spectrum(n, s, 0, q) == [1] + [0] * (n * s)
        assert mds_spectrum_alt(n, s, 0, q) == [1] + [0] * (n * s)
        # a one-point set is an optimum distribution with k = 0
        sp = Space(GF(2), n, s)
        point = Distribution(sp, words=[sp.random_word(random.Random(n))])
        assert distance_spectrum(point, point.word(0)) == mds_spectrum(n, s, 0, q)
    for k in (-1, 7):
        with pytest.raises(ValueError, match="k out of range"):
            mds_spectrum(2, 3, k, 2)


def test_mds_spectrum_anchor_independent():
    sp = Space(GF(3), 2, 2)
    dist = build_optimum_distribution(sp, 2)
    specs = {tuple(distance_spectrum(dist, w)) for w in dist.words()}
    assert len(specs) == 1


def test_spectrum_first_terms():
    for q, n, s in ((3, 2, 2), (2, 2, 3), (4, 2, 2)):
        for k in range(1, n * s + 1):
            spec = mds_spectrum(n, s, k, q)
            rho = n * s - k + 1
            assert spec[rho] == mds_first_weight(n, s, k, q)
            assert spec[rho] == weak_composition_count(n, rho, s) * (q - 1)
            if rho + 1 <= n * s:
                assert spec[rho + 1] == mds_next_weight(n, s, k, q)


def test_hamming_reduction_at_depth_one():
    # s = 1 must reproduce the classical MDS weight distribution
    def classical(n, k, q):
        d = n - k + 1
        out = [0] * (n + 1)
        out[0] = 1
        for r in range(d, n + 1):
            out[r] = math.comb(n, r) * sum(
                (-1) ** j * math.comb(r, j) * (q ** (r - d + 1 - j) - 1)
                for j in range(0, r - d + 1))
        return out

    for q in (2, 3, 4, 5):
        for n in range(1, min(q + 1, 5) + 1):
            for k in range(1, n + 1):
                assert mds_spectrum(n, 1, k, q) == classical(n, k, q)


def test_net_spectrum():
    for q, n, s in ((3, 2, 2), (2, 2, 3), (4, 3, 2), (3, 3, 2)):
        net = net_spectrum(n, s, q)
        assert net == mds_spectrum(n, s, s, q)
        assert net == net_spectrum_alt(n, s, q)
        rho = (n - 1) * s + 1
        assert all(net[r] == 0 for r in range(1, rho))
        for r in range(rho + n - 1, n * s + 1):
            assert net_spectrum_tail(n, s, q, r) == net[r]


def test_ball_packing():
    # t = 0 reduces to counting the whole space
    assert ball_packing_ok(16, 0, 2, 2, 2)
    assert not ball_packing_ok(17, 0, 2, 2, 2)
    # worked instance: 4 balls of radius 1 in 16 words
    assert ball_size(1, 2, 2, 2) == 1 + sphere_size(1, 2, 2, 2) == 3
    assert ball_packing_ok(4, 1, 2, 2, 2)
    assert not ball_packing_ok(6, 1, 2, 2, 2)
    # s = 1 is the classical Hamming bound
    for q in (2, 3):
        for n in range(1, 6):
            for t in range(n + 1):
                hamming_ball = sum(math.comb(n, i) * (q - 1) ** i
                                   for i in range(t + 1))
                assert ball_size(t, n, 1, q) == hamming_ball


def test_existence_condition():
    assert nets_exist(3, 2)
    assert not nets_exist(4, 2)
    assert nets_exist(2, 2) and nets_exist(1, 2)
    for q in (2, 3, 4, 5):
        assert nets_exist(q + 1, q)
        assert not nets_exist(q + 2, q)
    # the spectrum entry above the minimum goes negative exactly then
    assert net_excess_weight(4, 2, 2) < 0
    assert net_excess_weight(3, 2, 2) == 0
    assert net_excess_weight(2, 2, 3) > 0
