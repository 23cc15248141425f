"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact integer / rational arithmetic; no tolerances.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from nrtcodes import bulk
from nrtcodes.codes import (LinearCode, character_sum_report,
                            macwilliams_n1_ok, parity_nrt_weight)
from nrtcodes.construct import build_mds_code, build_optimum_distribution
from nrtcodes.geometry import (_family_report, base_reduce_net,
                               bounded_compositions, is_net, optimum_report,
                               star_discrepancy)
from nrtcodes.gf import GF
from nrtcodes.peano import (build_composite, distribution_base_change_weights,
                            dual_transport, optimum_base_p_bound,
                            weight_transport)
from nrtcodes.spectra import (distance_spectrum,
                              mds_first_weight, mds_next_weight, mds_spectrum,
                              mds_spectrum_alt, net_excess_weight,
                              net_spectrum, net_spectrum_alt,
                              net_spectrum_tail, nets_exist, sphere_size,
                              weak_composition_count)
from nrtcodes.words import Distribution, Space, nrt_weight

from _helpers import all_subspaces, random_code

FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 9: GF(3, 2)}


def _report(num, text, t0):
    print(f"criterion {num:2d}: PASS ({time.time() - t0:.2f}s) {text}")


def sweep():
    for q in (2, 3, 4, 5):
        for n in range(1, min(q + 1, 4) + 1):
            for s in range(1, 9):
                if n * s <= 8:
                    yield q, n, s


def test_criterion_01_weight_example():
    t0 = time.time()
    assert nrt_weight(((1, 1, 0), (0, 0, 1))) == 5
    _report(1, "worked NRT weight example equals 5", t0)


def test_criterion_02_constructions_are_mds():
    t0 = time.time()
    built = 0
    for q, n, s in sweep():
        space = Space(FIELDS[q], n, s)
        for k in range(1, n * s + 1):
            code = build_mds_code(space, k)
            assert code.k == k
            assert code.min_weight("nrt", method="enumerate") == n * s - k + 1, \
                (q, n, s, k)
            built += 1
    _report(2, f"{built} constructed codes all meet the Singleton bound", t0)


def test_criterion_03_optimum_equivalence():
    t0 = time.time()
    built = 0
    for q, n, s in sweep():
        space = Space(FIELDS[q], n, s)
        for k in range(1, n * s + 1):
            dist = build_optimum_distribution(space, k)
            assert optimum_report(dist, k).ok, (q, n, s, k)
            code = build_mds_code(space, k)
            assert dist.same_multiset(code.distribution()), (q, n, s, k)
            built += 1
    _report(3, f"{built} distributions verified optimum and word-identical "
               f"to their codes", t0)


def test_criterion_04_spectrum_formulas():
    t0 = time.time()
    checked = 0
    for q, n, s in sweep():
        space = Space(FIELDS[q], n, s)
        for k in range(1, n * s + 1):
            if q ** k > 4096:
                continue
            dist = build_optimum_distribution(space, k)
            brute = distance_spectrum(dist, space.zero())
            formula = mds_spectrum(n, s, k, q)
            assert brute == formula, (q, n, s, k)
            assert formula == mds_spectrum_alt(n, s, k, q)
            rho = n * s - k + 1
            assert formula[rho] == weak_composition_count(n, rho, s) * (q - 1)
            assert formula[rho] == mds_first_weight(n, s, k, q)
            if rho + 1 <= n * s:
                assert formula[rho + 1] == mds_next_weight(n, s, k, q)
                if k == s:
                    assert formula[rho + 1] == net_excess_weight(n, s, q)
            checked += 1
    _report(4, f"{checked} spectra match the closed forms and first terms", t0)


def test_criterion_05_net_spectrum_consistency():
    t0 = time.time()
    for q in (2, 3, 4):
        for n in range(1, 4):
            for s in range(1, 4):
                net = net_spectrum(n, s, q)
                assert net == mds_spectrum(n, s, s, q), (q, n, s)
                assert net == net_spectrum_alt(n, s, q)
                rho = (n - 1) * s + 1
                assert net[0] == 1 and all(net[r] == 0 for r in range(1, rho))
                for r in range(rho + n - 1, n * s + 1):
                    assert net_spectrum_tail(n, s, q, r) == net[r]
    _report(5, "zero-deficiency spectra agree with the k=s closed form "
               "and tail", t0)


def test_criterion_06_sphere_partition():
    t0 = time.time()
    for q in (2, 3, 4):
        gf = FIELDS[q]
        for n in range(1, 4):
            for s in range(1, 4):
                space = Space(gf, n, s)
                whole = LinearCode.whole_space(space)
                hist = [0] * (n * s + 1)
                for w in bulk.nrt_weights(whole.words_array(), n, s):
                    hist[int(w)] += 1
                for r in range(n * s + 1):
                    assert hist[r] == sphere_size(r, n, s, q), (q, n, s, r)
                assert sum(hist) == q ** (n * s)
    _report(6, "sphere sizes match the closed form and partition the space", t0)


def test_criterion_07_duality():
    t0 = time.time()
    checked = 0
    for q, n, s in sweep():
        space = Space(FIELDS[q], n, s)
        for k in range(1, n * s + 1):
            code = build_mds_code(space, k)
            dual = code.dual()
            assert code.k + dual.k == n * s
            assert dual.dual() == code
            if dual.k:
                assert dual.min_weight("nrt") == n * s - dual.k + 1, (q, n, s, k)
            checked += 1
    _report(7, f"{checked} duals are MDS of complementary dimension", t0)


def test_criterion_08_box_regularity_iff_dual_weight():
    t0 = time.time()
    cases = 0
    for gf, n, s in ((GF(2), 2, 2), (GF(2), 1, 3)):
        space = Space(gf, n, s)
        for code in all_subspaces(space):
            d = code.k
            dist = code.distribution()
            dual = code.dual()
            dual_w = dual.min_weight("nrt") if dual.k else space.dim + 1
            for delta in range(d + 1):
                families = bounded_compositions(d - delta, n, s)
                regular = _family_report(dist, ((a, 2 ** delta) for a in families)).ok
                assert regular == (dual_w >= d - delta + 1), (code.basis, delta)
                cases += 1
            # net characterization at dimension s
            if d == s:
                for delta in range(s + 1):
                    assert is_net(dist, delta) == (dual_w >= s + 1 - delta)
    _report(8, f"{cases} box-regularity cases match the dual-weight "
               f"characterization", t0)


def test_criterion_09_character_sums():
    t0 = time.time()
    rng = random.Random(9)
    shapes = [(2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 1, 3),
              (3, 2, 2), (3, 2, 3), (3, 3, 2), (2, 1, 6), (3, 1, 5)]
    for trial in range(50):
        q, n, s = shapes[trial % len(shapes)]
        space = Space(FIELDS[q], n, s)
        k = rng.randrange(1, n * s + 1)
        code = random_code(space, k, rng)
        report = character_sum_report(code)
        assert report.ok, (q, n, s, k, report.failure)
    _report(9, "50 random linear distributions satisfy the character-sum "
               "dichotomy and box duality", t0)


def test_criterion_10_macwilliams_depth_one():
    t0 = time.time()
    total = 0
    for q, s in ((2, 2), (2, 3), (3, 2)):
        space = Space(FIELDS[q], 1, s)
        for code in all_subspaces(space):
            assert macwilliams_n1_ok(code.distribution(),
                                     code.dual().distribution()), code.basis
            total += 1
    _report(10, f"one-dimensional MacWilliams identity holds for all "
                f"{total} subspaces", t0)


def test_criterion_11_parity_check_weight():
    t0 = time.time()
    rng = random.Random(11)
    shapes = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 4, 2), (2, 1, 8),
              (3, 2, 2), (3, 2, 3), (3, 1, 6), (3, 4, 2), (3, 8, 1)]
    for trial in range(100):
        q, n, s = shapes[trial % len(shapes)]
        space = Space(FIELDS[q], n, s)
        k = rng.randrange(1, n * s)
        code = random_code(space, k, rng)
        assert parity_nrt_weight(code.parity_check()) == \
            code.min_weight("nrt", method="enumerate"), (q, n, s, k)
    _report(11, "100 random codes: prefix-rank weight equals the "
                "enumerated weight", t0)


def _all_pairs_pairing_equal(q, g, n, s):
    """Exhaustively compare <merge x, merge y> with <block_reverse x, y>
    over every pair of words, via chunked matrix products (the inner sums
    stay below 2^24, exact in float32)."""
    gf = FIELDS[q]
    tall = Space(gf, g * n, s)
    whole = LinearCode.whole_space(tall)
    arr = whole.words_array()
    gs = g * s
    perm_merged = np.array([j * gs + (gs - 1 - i)
                            for j in range(n) for i in range(gs)])
    perm_tall = np.array([r * s + (s - 1 - i)
                          for r in range(g * n) for i in range(s)])
    perm_j = np.array([(r // g) * g + (g - 1 - r % g) for r in range(g * n)])
    perm_j_cols = np.array([int(perm_j[pos // s]) * s + pos % s
                            for pos in range(tall.dim)])
    left = arr.astype(np.float32)
    lhs_right = arr[:, perm_merged].T.astype(np.float32)
    rhs_left = arr[:, perm_j_cols].astype(np.float32)
    rhs_right = arr[:, perm_tall].T.astype(np.float32)
    # difference of the two pairings is a multiple of q iff they agree
    bound = tall.dim * (q - 1) ** 2
    ok_diff = np.zeros(2 * bound + 1, dtype=bool)
    ok_diff[(np.arange(-bound, bound + 1) % q) == 0] = True
    count = arr.shape[0]
    for lo in range(0, count, 2048):
        hi = min(lo + 2048, count)
        diff = left[lo:hi] @ lhs_right - rhs_left[lo:hi] @ rhs_right
        if not ok_diff[diff.astype(np.int16) + bound].all():
            return False
    return True


def _exhaustive_merge_weights_ok(q, g, n, s):
    """All words at once: Hamming preserved, NRT never decreased, and the
    per-block closed form equals the merged weight."""
    tall = Space(FIELDS[q], g * n, s)
    arr = LinearCode.whole_space(tall).words_array()
    rho_tall = bulk.nrt_weights(arr, g * n, s)
    rho_merged = bulk.nrt_weights(arr, n, g * s)
    if not (bulk.hamming_weights(arr, g * n, s)
            == bulk.hamming_weights(arr, n, g * s)).all():
        return False
    if not (rho_merged >= rho_tall).all():
        return False
    # closed form: last nonzero row l of each block contributes rw_l + (l-1)s
    rw = ((arr.reshape(-1, g * n, s) != 0) * np.arange(1, s + 1)).max(axis=2)
    blocks = rw.reshape(-1, n, g)
    has = (blocks > 0).any(axis=2)
    last = g - 1 - np.argmax(blocks[:, :, ::-1] > 0, axis=2)
    w_last = np.take_along_axis(blocks, last[:, :, None], axis=2)[:, :, 0]
    formula = np.where(has, w_last + last * s, 0).sum(axis=1)
    return bool((formula == rho_merged).all())


def test_criterion_12_block_merge_relations():
    t0 = time.time()
    shapes = [(g, n, s)
              for g in range(2, 9) for n in range(1, 5) for s in range(1, 5)
              if g * n * s <= 8]
    for q in (2, 3):
        gf = FIELDS[q]
        for g, n, s in shapes:
            assert _exhaustive_merge_weights_ok(q, g, n, s), (q, g, n, s)
            assert _all_pairs_pairing_equal(q, g, n, s), (q, g, n, s)
    # the library transport function itself, exhaustively on small spaces
    for g, n, s in ((2, 1, 2), (2, 2, 1), (4, 1, 2)):
        tall = Space(GF(2), g * n, s)
        for w in tall.all_words():
            rep = weight_transport(w, g)
            assert rep.hamming_after == rep.hamming_before
            assert rep.nrt_after >= rep.nrt_before
    # duality transport on 50 random codes
    rng = random.Random(12)
    for trial in range(50):
        q = (2, 3)[trial % 2]
        g, n, s = shapes[trial % len(shapes)]
        tall = Space(FIELDS[q], g * n, s)
        k = rng.randrange(1, tall.dim + 1)
        dual_transport(random_code(tall, k, rng), g)  # raises on mismatch
    # worked composite instance: all four weight relations
    build = build_composite(GF(3), 2, 2, 1, 1)
    assert build.code.min_weight("nrt") == 3
    assert build.code.min_weight("hamming") >= 3
    assert build.code.dual().min_weight("nrt") == 3
    assert build.code.dual().min_weight("hamming") >= 3
    _report(12, "digit-block merge weight/pairing relations, duality "
                "transport, and the composite instance", t0)


def test_criterion_13_base_change():
    t0 = time.time()
    checked = 0
    for q in (4, 9):
        gf = FIELDS[q]
        for n in range(1, 7):
            for s in range(1, 7):
                if n * s > 6 or n > q + 1:
                    continue
                space = Space(gf, n, s)
                for k in range(1, n * s + 1):
                    dist = build_optimum_distribution(space, k)
                    rep = distribution_base_change_weights(dist)
                    assert rep.nrt_q == n * s - k + 1
                    assert rep.bounds_ok, (q, n, s, k)
                    assert rep.nrt_p >= optimum_base_p_bound(n, s, k, gf.e)
                    checked += 1
    # direct base-p net verification of the base-4 two-dimensional net
    net = build_optimum_distribution(Space(GF(2, 2), 2, 1), 1)
    assert is_net(net, 0)
    reduced, delta_p, report = base_reduce_net(net, 0)
    assert delta_p == 1 and report.ok
    assert reduced.space.q == 2 and reduced.space.s == 2
    _report(13, f"{checked} base-change weight bounds plus the direct "
                f"deficiency-1 net check", t0)


def test_criterion_14_existence_condition():
    t0 = time.time()
    for q in (2, 3, 4, 5, 7):
        for n in range(1, 10):
            assert nets_exist(n, q) == (q >= n - 1)
    assert net_excess_weight(4, 2, 2) < 0
    assert net_excess_weight(4, 3, 2) < 0
    _report(14, "existence threshold matches and the (q,n)=(2,4) spectrum "
                "entry is negative", t0)


def _lattice_discrepancy(dist):
    """Independent oracle: both one-sided values on the full q^-s lattice."""
    space = dist.space
    q, s, n = space.q, space.s, space.n
    pts = dist.points()
    count = len(pts)
    axis = [Fraction(m, q ** s) for m in range(q ** s + 1)]
    best = Fraction(0)
    for corner in itertools.product(axis, repeat=n):
        vol = Fraction(1)
        for c in corner:
            vol *= c
        strict = sum(1 for p in pts if all(x < c for x, c in zip(p, corner)))
        weak = sum(1 for p in pts if all(x <= c for x, c in zip(p, corner)))
        best = max(best, abs(Fraction(strict, count) - vol),
                   abs(Fraction(weak, count) - vol))
    return best


def test_criterion_15_star_discrepancy():
    t0 = time.time()
    rng = random.Random(15)
    test_sets = []
    # generated zero-deficiency nets with N <= 32, n <= 2
    for q, n, s in ((2, 1, 3), (2, 1, 5), (2, 2, 2), (3, 2, 2), (5, 2, 2),
                    (4, 2, 2), (3, 1, 3)):
        space = Space(FIELDS[q], n, s)
        net = build_optimum_distribution(space, s)
        assert is_net(net, 0), (q, n, s)
        test_sets.append(net)
    # assorted random multisets
    for q, n, s in ((2, 1, 5), (2, 2, 2), (3, 2, 1), (3, 1, 2), (5, 1, 2)):
        space = Space(FIELDS[q], n, s)
        words = list(space.all_words())
        for _ in range(3):
            count = rng.randrange(1, min(33, len(words) + 1))
            test_sets.append(Distribution(
                space, words=[rng.choice(words) for _ in range(count)]))
    for dist in test_sets:
        assert len(dist) <= 32 and dist.space.n <= 2
        value = star_discrepancy(dist)
        assert isinstance(value, Fraction)
        assert value == _lattice_discrepancy(dist)
    _report(15, f"{len(test_sets)} exact discrepancies match the full-grid "
                f"oracle; all generated nets verified", t0)
