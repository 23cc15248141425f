"""Builders for linear MDS codes and optimum distributions by Hermite-style
hyperderivative evaluation at fixed nodes.

A polynomial f of the k-dimensional space M^k is sent to the word whose
row at node beta reads (d^(s-1) f(beta), ..., d^1 f(beta), f(beta)); a
node at INF reads reversed coefficients relative to the ambient dimension
k.  The images of the monomials 1, z, ..., z^(k-1) span the code; the
same words, read as radix digits, are the points of the distribution.
"""

from __future__ import annotations

from .codes import ENUMERATION_BOUND, LinearCode
from .gf import GF
from .poly import INF, hyper_eval
from .words import Distribution, Space, Word


def default_nodes(gf: GF, n: int) -> tuple:
    """Canonical node choice: labels 0..n-1, with INF as the extra node
    when n = q + 1.  Requires q >= n - 1 so enough nodes exist."""
    if n <= gf.q:
        return tuple(range(n))
    if n == gf.q + 1:
        return tuple(range(gf.q)) + (INF,)
    raise ValueError(f"q >= n - 1 required: F_{gf.q} has no {n} distinct nodes")


def _check_nodes(gf: GF, nodes) -> tuple:
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")  # so at most one INF
    for b in nodes:
        if b != INF:
            gf.check(b)
    return nodes


def evaluation_word(space: Space, f, nodes, ambient: int | None = None) -> Word:
    """Word of hyperderivative values of f at the given nodes; entry i of
    a row holds the derivative of order s - 1 - i (value itself last)."""
    gf = space.gf
    nodes = _check_nodes(gf, nodes)
    if len(nodes) != space.n:
        raise ValueError("node count must equal the number of rows")
    if ambient is None:
        ambient = space.dim
    if len(f) > ambient:
        raise ValueError("polynomial degree exceeds the ambient dimension")
    s = space.s
    return tuple(
        tuple(hyper_eval(gf, f, beta, s - 1 - i, ambient=ambient)
              for i in range(s))
        for beta in nodes
    )


def _monomial_rows(space: Space, k: int, nodes) -> list:
    """Flat evaluation words of 1, z, ..., z^(k-1) at the nodes (by
    default `default_nodes`), once k and the nodes are checked.  The r-th
    hyperderivative of z^m at beta is C(m, r) beta^(m-r) (0^0 = 1), and
    at INF it is 1 iff m = k - 1 - r, so each entry is one table lookup."""
    gf = space.gf
    if not 1 <= k <= space.dim:
        raise ValueError("k out of range")
    if nodes is None:
        nodes = default_nodes(gf, space.n)
    else:
        nodes = _check_nodes(gf, nodes)
        if len(nodes) != space.n:
            raise ValueError("node count must equal n")
    mul, p, s = gf.mul_lookup, gf.p, space.s
    # entry i of a row holds the derivative of order s - 1 - i
    orders = range(s - 1, -1, -1)
    # C(m, r) mod p for r = s - 1, ..., 0, carried from m to m + 1 by
    # Pascal's rule C(m + 1, r) = C(m, r) + C(m, r - 1)
    binom, pascal = [], [0] * (s - 1) + [1]
    for _ in range(k):
        binom.append(pascal)
        pascal = [(a + b) % p for a, b in zip(pascal, pascal[1:])] + [1]
    rows = [[] for _ in range(k)]
    for beta in nodes:
        if beta == INF:
            for m, row in enumerate(rows):
                row += [int(m == k - 1 - r) for r in orders]
            continue
        powers = [1]
        for _ in range(k - 1):
            powers.append(mul[powers[-1]][beta])
        for m, row in enumerate(rows):
            row += [mul[c][powers[m - r]] if m >= r else 0
                    for c, r in zip(binom[m], orders)]
    return rows


def build_mds_code(space: Space, k: int, nodes=None) -> LinearCode:
    """MDS code of dimension k in Mat_{n,s}(F_q), spanned by the monomial
    evaluation words.  Needs q >= n - 1 and 1 <= k <= ns."""
    code = LinearCode(space, _monomial_rows(space, k, nodes))
    if code.k != k:
        raise AssertionError("evaluation words are dependent")
    return code


def build_optimum_distribution(space: Space, k: int, nodes=None) -> Distribution:
    """The q^k points whose digit words are exactly the codewords of
    build_mds_code, in coefficient colex order, with the monomial rows as
    their generator (a lazy span, see `Distribution`).  More than
    ENUMERATION_BOUND points are refused before any row is built."""
    if 1 <= k <= space.dim and space.q ** k > ENUMERATION_BOUND:
        raise ValueError(f"q^k = {space.q ** k} points exceed the bound of "
                         f"{ENUMERATION_BOUND} (2^21)")
    return Distribution(space, generator=_monomial_rows(space, k, nodes))
