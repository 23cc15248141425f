"""Digit-block bijections between Mat_{gn,s} and Mat_{n,gs}, their effect
on weights and duality, composite constructions, and base p^e -> p
weight bookkeeping.

The forward map joins each group of g consecutive rows into one row of
length g*s, keeping each row's digits in place (block row 1 provides the
lowest digit positions).  That order is what makes the block weight
formula and the weight monotonicity below exact.
"""

from __future__ import annotations

from collections import namedtuple

from .codes import LinearCode
from .construct import build_optimum_distribution, default_nodes
from .words import (Distribution, Space, Word, hamming_weight, nrt_weight,
                    row_weight)


def merge_rows(word: Word, g: int) -> Word:
    """Forward bijection: each block of g rows becomes their concatenation
    (block row j occupying digit positions (j-1)s+1 .. js)."""
    if len(word) % g:
        raise ValueError("row count not divisible by g")
    out = []
    for b in range(0, len(word), g):
        row: tuple[int, ...] = ()
        for j in range(g):
            row = row + tuple(word[b + j])
        out.append(row)
    return tuple(out)


def block_reverse_rows(word: Word, g: int) -> Word:
    """The involution reversing row order inside each block of g rows."""
    if len(word) % g:
        raise ValueError("row count not divisible by g")
    out = []
    for b in range(0, len(word), g):
        out.extend(reversed(word[b:b + g]))
    return tuple(out)


def merged_block_weight(block_rows) -> int:
    """NRT weight of one merged block from its row weights: with l the
    last nonzero row, it is weight(row_l) + (l-1)s."""
    s = len(block_rows[0])
    last = 0
    for j, row in enumerate(block_rows, start=1):
        if row_weight(row):
            last = j
    if last == 0:
        return 0
    return row_weight(block_rows[last - 1]) + (last - 1) * s


WeightTransport = namedtuple("WeightTransport",
                             "hamming_before hamming_after nrt_before nrt_after")


def weight_transport(word: Word, g: int) -> WeightTransport:
    """Weights before and after merging.  The Hamming weight is preserved,
    the NRT weight never decreases, and the merged NRT weight equals the
    sum of the per-block formula (cross-checked here)."""
    merged = merge_rows(word, g)
    report = WeightTransport(hamming_weight(word), hamming_weight(merged),
                             nrt_weight(word), nrt_weight(merged))
    formula = sum(merged_block_weight(word[b:b + g])
                  for b in range(0, len(word), g))
    if formula != report.nrt_after:
        raise AssertionError("per-block weight formula disagrees with the merge")
    return report


def merged_space(space: Space, g: int) -> Space:
    if space.n % g:
        raise ValueError("row count not divisible by g")
    return Space(space.gf, space.n // g, space.s * g)


def merge_code(code: LinearCode, g: int) -> LinearCode:
    # a word and its merge share one row-major flat layout, as in merge_rows,
    # so the RREF basis is the merged code's RREF basis as it stands
    return LinearCode._reduced(merged_space(code.space, g), code.basis)


def merge_distribution(dist: Distribution, g: int) -> Distribution:
    # row-major reshape concatenates each g consecutive rows, matching
    # merge_rows; so the flat generator rows stay those of the merged set
    return dist.reshaped(merged_space(dist.space, g))


def block_reverse_code(code: LinearCode, g: int) -> LinearCode:
    words = [block_reverse_rows(code.space.unflatten(r), g) for r in code.basis]
    return LinearCode.from_words(code.space, words)


def dual_transport(code: LinearCode, g: int) -> LinearCode:
    """Dual of the merged code, computed two independent ways (merge then
    dualize vs. dualize, block-reverse, merge) which must agree."""
    direct = merge_code(code, g).dual()
    moved = merge_code(block_reverse_code(code.dual(), g), g)
    if direct != moved:
        raise AssertionError("duality transport mismatch")
    return direct


class CompositeBuild(namedtuple("CompositeBuild",
                                "g t code_tall dist_tall code dist")):
    """Composite construction: an MDS code / optimum distribution built
    with gn rows at digit depth s, then merged down to n rows of depth
    g*s.  k = s*t is the underlying dimension parameter; the merged code
    has dimension g*k."""

    __slots__ = ()


def build_composite(gf, g: int, n: int, s: int, t: int, nodes=None) -> CompositeBuild:
    """Merged images of the gn-row construction with k = s*t; requires
    1 <= t <= n-1 and q >= gn - 1.  The tall code is spanned by the tall
    set's generator, so the rows are built once; one
    `geometry.optimum_report` of the merged set decides if it is MDS."""
    if not 1 <= t <= n - 1:
        raise ValueError("need 1 <= t <= n-1")
    k = s * t
    tall = Space(gf, g * n, s)
    if nodes is None:
        nodes = default_nodes(gf, g * n)
    # the distribution first: it refuses q^(gk) points before any row is built
    dist_tall = build_optimum_distribution(tall, g * k, nodes=nodes)
    code_tall = LinearCode(tall, dist_tall.generator)
    return CompositeBuild(g, t, code_tall, dist_tall,
                          merge_code(code_tall, g),
                          merge_distribution(dist_tall, g))


# --- base p^e -> p weight relations ---

class BaseChangeWeights(namedtuple("BaseChangeWeights",
                                   "nrt_q nrt_p hamming_q hamming_p e n")):
    __slots__ = ()

    @property
    def bounds_ok(self) -> bool:
        """Digit expansion bounds: e(rq-1)+1-(e-1)(n-1) <= rp <= e*rq and
        kq <= kp <= e*kq."""
        e, n = self.e, self.n
        lo = e * (self.nrt_q - 1) + 1 - (e - 1) * (n - 1)
        if not lo <= self.nrt_p <= e * self.nrt_q:
            return False
        return self.hamming_q <= self.hamming_p <= e * self.hamming_q


def _min_weights(dist: Distribution) -> tuple[int, int]:
    """Least NRT and Hamming weight of the nonzero points of a point set."""
    from . import bulk

    if not len(dist):
        raise ValueError("point set is empty")
    space = dist.space
    arr = dist.array().reshape(len(dist), -1)
    nz = arr.any(axis=1)
    if not nz.any():
        raise ValueError("zero distribution")
    rho = bulk.nrt_weights(arr, space.n, space.s)
    kap = bulk.nrt_weights(arr, space.dim, 1)  # the Hamming weight
    return int(rho[nz].min()), int(kap[nz].min())


def distribution_base_change_weights(dist: Distribution, reduced=None) -> BaseChangeWeights:
    """Least weights of the nonzero points in base q = p^e and in base p (of
    `reduced`, default `dist.to_base_p()`): minimum distances if linear."""
    space = dist.space
    rho_q, kap_q = _min_weights(dist)
    rho_p, kap_p = _min_weights(dist.to_base_p() if reduced is None else reduced)
    return BaseChangeWeights(rho_q, rho_p, kap_q, kap_p, space.gf.e, space.n)


def optimum_base_p_bound(n: int, s: int, k: int, e: int) -> int:
    """Guaranteed base-p NRT weight of an optimum distribution:
    (ns-k)e + 1 - (e-1)(n-1)."""
    return (n * s - k) * e + 1 - (e - 1) * (n - 1)


class CompositeBasePReport(namedtuple(
        "CompositeBasePReport", "nrt_p hamming_p dual_nrt_p dual_hamming_p nrt_p_bound "
        "hamming_p_bound dual_nrt_p_bound dual_hamming_p_bound")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.nrt_p >= self.nrt_p_bound
                and self.hamming_p >= self.hamming_p_bound
                and self.dual_nrt_p >= self.dual_nrt_p_bound
                and self.dual_hamming_p >= self.dual_hamming_p_bound)


def composite_base_p_report(build: CompositeBuild) -> CompositeBasePReport:
    """Measure the four base-p weights of a composite build and compare
    with their guaranteed lower bounds."""
    space = build.code.space
    gf = space.gf
    e, g, t = gf.e, build.g, build.t
    n = space.n
    s_tall = build.code_tall.space.s
    k = s_tall * t
    dist = build.code.distribution().to_base_p()
    dual_dist = build.code.dual().distribution().to_base_p()
    rho_p, kap_p = _min_weights(dist)
    d_rho_p, d_kap_p = _min_weights(dual_dist)
    # the dual Hamming bound is t*g+1: base change never shrinks a Hamming
    # weight, and the base-q dual weight is already >= t*g+1
    return CompositeBasePReport(
        rho_p, kap_p, d_rho_p, d_kap_p,
        (n * s_tall - k) * e * g + 1 - (e - 1) * (n - 1),
        (n - t) * g + 1,
        k * e * g + 1 - (e - 1) * (n - 1),
        t * g + 1,
    )
