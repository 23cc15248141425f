"""Sphere and ball combinatorics of the NRT metric, exact distance spectra
of point sets, and the closed-form spectra of MDS codes and zero-deficiency
nets.  A spectrum is counted word by word, except that of a set built as a
span, from the origin: `codes.span_weight_counts` of its generator, by the
route `codes._route` picks.

All counting is done in unbounded Python integers; the closed forms can
legitimately go negative outside the existence range (that negativity is
exactly the nonexistence certificate), so nothing here clamps or gates
on q >= n - 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .words import Distribution


@lru_cache(maxsize=None)
def composition_count(parts: int, total: int, bound: int) -> int:
    """Compositions of `total` into exactly `parts` parts from 1..bound."""
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts or total > parts * bound:
        return 0
    return sum(composition_count(parts - 1, total - last, bound)
               for last in range(1, bound + 1))


def weak_composition_count(parts: int, total: int, bound: int) -> int:
    """Compositions of `total` into `parts` parts from 0..bound; equals the
    binomial-weighted sum of the exact-part counts."""
    return sum(math.comb(parts, l) * composition_count(l, total, bound)
               for l in range(0, parts + 1))


def sphere_size(r: int, n: int, s: int, q: int) -> int:
    """Number of words of Mat_{n,s}(F_q) of NRT weight exactly r."""
    if not 0 <= r <= n * s:
        raise ValueError("radius out of range")
    return sum(math.comb(n, l) * composition_count(l, r, s)
               * (q - 1) ** l * q ** (r - l)
               for l in range(0, min(n, r) + 1))


def ball_size(t: int, n: int, s: int, q: int) -> int:
    return sum(sphere_size(r, n, s, q) for r in range(0, min(t, n * s) + 1))


def distance_spectrum(dist: Distribution, anchor) -> list[int]:
    """Histogram (w_0, ..., w_ns) of NRT distances from `anchor`, which
    must itself belong to the distribution.  From the zero word, a set
    with a generator (see `Distribution`) is counted from it, without its
    array, by `codes.span_weight_counts`.  Any other set or anchor reads
    the array."""
    from . import codes

    space = dist.space
    anchor = space.check_word(anchor)
    flat_anchor = space.flatten(anchor)
    rows = dist.generator
    if rows is not None and not any(flat_anchor):
        return codes.span_weight_counts(space, rows)
    import numpy as np
    from . import bulk

    arr = dist.array().reshape(len(dist), space.dim)
    diffs = bulk.sub_anchor(space.gf, arr, flat_anchor)
    rho = bulk.nrt_weights(diffs, space.n, space.s)
    out = np.bincount(rho, minlength=space.dim + 1).tolist()
    if out[0] == 0:
        raise ValueError("anchor is not a member of the distribution")
    return out


def mds_spectrum(n: int, s: int, k: int, q: int) -> list[int]:
    """Weight spectrum of any MDS code of dimension k in Mat_{n,s}(F_q):
    w_0 = 1, zero below the minimum weight ns-k+1, then the alternating
    double sum over part counts l and inclusion depth t.  k = 0 is the
    zero code, whose spectrum is (1, 0, ..., 0)."""
    if not 0 <= k <= n * s:
        raise ValueError("k out of range")
    rho = n * s - k + 1
    w = [0] * (n * s + 1)
    w[0] = 1
    for r in range(rho, n * s + 1):
        total = 0
        for l in range(1, n + 1):
            sig = composition_count(l, r, s)
            if not sig:
                continue
            inner = sum((-1) ** t * math.comb(l, t) * (q ** (r - rho + 1 - t) - 1)
                        for t in range(0, r - rho + 1))
            total += math.comb(n, l) * sig * inner
        w[r] = total
    return w


def net_spectrum(n: int, s: int, q: int) -> list[int]:
    """Spectrum of a zero-deficiency net (the k = s case), with minimum
    weight (n-1)s + 1."""
    rho = (n - 1) * s + 1
    w = [0] * (n * s + 1)
    w[0] = 1
    for r in range(rho, n * s + 1):
        sig = weak_composition_count(n, r, s)
        inner = sum((-1) ** t * math.comb(n, t) * (q ** (r - rho + 1 - t) - 1)
                    for t in range(0, r - rho + 1))
        w[r] = sig * inner
    return w


def net_spectrum_tail(n: int, s: int, q: int, r: int) -> int:
    """Closed tail form, valid for r >= (n-1)s + n = rho + n - 1."""
    rho = (n - 1) * s + 1
    if r < rho + n - 1 or r > n * s:
        raise ValueError("r outside the tail range")
    return weak_composition_count(n, r, s) * (q - 1) ** n * q ** (r - rho - n + 1)


def mds_first_weight(n: int, s: int, k: int, q: int) -> int:
    """Spectrum entry at the minimum weight itself."""
    rho = n * s - k + 1
    return weak_composition_count(n, rho, s) * (q - 1)


def mds_next_weight(n: int, s: int, k: int, q: int) -> int:
    """Spectrum entry one above the minimum weight (needs rho + 1 <= ns)."""
    rho = n * s - k + 1
    if rho + 1 > n * s:
        raise ValueError("spectrum has no entry above the minimum weight")
    return (q - 1) * sum(math.comb(n, l) * (q + 1 - l)
                         * composition_count(l, rho + 1, s)
                         for l in range(1, n + 1))


def net_excess_weight(n: int, s: int, q: int) -> int:
    """k = s specialization of the entry above the minimum weight; its sign
    decides whether long zero-deficiency nets can exist (negative forces
    q < n - 1 to be impossible)."""
    if s < 2:
        raise ValueError("needs s > 1 so the entry exists")
    rho = (n - 1) * s + 1
    return (q - 1) * composition_count(n, rho + 1, s) * (q - n + 1)


def nets_exist(n: int, q: int) -> bool:
    """Existence condition q >= n-1 for arbitrarily long optimum
    distributions / zero-deficiency nets in dimension n over F_q."""
    return q >= n - 1

