"""Polynomials over GF(p^e) with Hasse derivatives and Hermite interpolation.

Polynomials are coefficient lists of field labels, constant term first,
normalized so the last entry is nonzero ([] is the zero polynomial).
Interpolation nodes live in F_q extended by the point INF; evaluation at
INF reads reversed coefficients relative to an ambient space dimension t
(polynomials of degree < t), which keeps the evaluation map linear.
"""

from __future__ import annotations

import enum
import math

from .codes import rref
from .gf import GF


class _Node(enum.Enum):
    """The extra interpolation node beyond the field labels."""

    INF = "inf"

    def __repr__(self):
        return "INF"


INF = _Node.INF


def normalize(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f) -> int:
    """Degree of f, -1 for the zero polynomial."""
    return len(f) - 1


def poly_add(gf: GF, f, g):
    out = [gf.add(a, b) for a, b in zip(f, g)]
    longer = f if len(f) > len(g) else g
    out.extend(longer[len(out):])
    return normalize(out)


def poly_scale(gf: GF, f, c: int):
    if c == 0:
        return []
    return [gf.mul(c, a) for a in f]


def poly_mul(gf: GF, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return normalize(out)


def poly_divmod(gf: GF, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    quot = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = gf.inv(g[-1])
    dg = degree(g)
    while degree(rem) >= dg:
        c = gf.mul(rem[-1], inv_lead)
        shift = degree(rem) - dg
        quot[shift] = c
        for i, b in enumerate(g):
            rem[shift + i] = gf.sub(rem[shift + i], gf.mul(c, b))
        normalize(rem)
    return normalize(quot), rem


def binom_mod(m: int, j: int, p: int) -> int:
    """Binomial coefficient C(m, j) mod p by Lucas' rule."""
    if j < 0 or j > m:
        return 0
    out = 1
    while j:
        a, b = m % p, j % p
        if b > a:
            return 0
        out = out * math.comb(a, b) % p
        m //= p
        j //= p
    return out


def hasse_derivative(gf: GF, f, j: int):
    """j-th hyperderivative: coefficient of z^(i-j) is C(i,j) f_i."""
    if j == 0:
        return list(f)
    out = []
    for i in range(j, len(f)):
        c = binom_mod(i, j, gf.p)
        out.append(gf.mul(c, f[i]))
    return normalize(out)


def eval_poly(gf: GF, f, beta: int) -> int:
    out = 0
    for a in reversed(f):
        out = gf.add(gf.mul(out, beta), a)
    return out


def hyper_eval(gf: GF, f, beta, j: int = 0, ambient: int | None = None) -> int:
    """Value of the j-th hyperderivative of f at beta (a label or INF).

    At INF the value is the reversed coefficient f_(t-1-j) read in the
    ambient space of polynomials of degree < t, so `ambient` is required
    there and must cover deg f.
    """
    if beta == INF:
        if ambient is None or ambient < len(f):
            raise ValueError("ambient degree too small")
        idx = ambient - 1 - j
        if idx < 0 or idx >= len(f):
            return 0
        return f[idx]
    return eval_poly(gf, hasse_derivative(gf, f, j), beta)


def taylor_expand(gf: GF, f, beta: int) -> list[int]:
    """Hyperderivative values (d^0 f(beta), ..., d^deg(f) f(beta))."""
    return [hyper_eval(gf, f, beta, j) for j in range(len(f))]


def linear_factor_power(gf: GF, beta: int, t: int):
    """(z - beta)^t as a coefficient list."""
    out = [1]
    factor = [gf.neg(beta), 1]
    for _ in range(t):
        out = poly_mul(gf, out, factor)
    return out


def from_taylor(gf: GF, values, beta: int):
    """Rebuild sum_j values[j] (z - beta)^j."""
    out = []
    power = [1]
    factor = [gf.neg(beta), 1]
    for v in values:
        out = poly_add(gf, out, poly_scale(gf, power, v))
        power = poly_mul(gf, power, factor)
    return out


def hermite_interpolate(gf: GF, nodes, mults, targets):
    """Unique f of degree < t with prescribed hyperderivative values.

    nodes: pairwise distinct labels, optionally one INF.
    mults: per-node multiplicities t_i, sum t.
    targets: per node i, the t_i values d^j f(node_i) for j = 0..t_i-1.

    One t x t linear solve in the coefficients of f: the row of d^j f(beta)
    holds C(m, j) beta^(m-j) at z^m (0 for m < j), that of d^j f(INF) a 1
    at z^(t-1-j); distinct nodes make `codes.rref` of [rows | targets] end
    in [I | f].
    """
    if len(nodes) != len(mults) or [len(tg) for tg in targets] != list(mults):
        raise ValueError("inconsistent dimensions")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate nodes")
    for beta, values in zip(nodes, targets):
        for label in values if beta == INF else [beta, *values]:
            gf.check(label)
    t = sum(mults)

    rows = []
    for beta, values in zip(nodes, targets):
        for j, v in enumerate(values):
            if beta == INF:
                row = [int(m == t - 1 - j) for m in range(t)]
            else:
                row = [0] * j + [gf.mul(binom_mod(m, j, gf.p), gf.pow(beta, m - j))
                                 for m in range(j, t)]
            rows.append(row + [v])
    reduced = rref(gf, rows)
    # t rows in RREF are [I | f] iff each pivot sits on the diagonal
    if len(reduced) != t or any(row[i] != 1 for i, row in enumerate(reduced)):
        raise AssertionError("interpolation system is singular")
    f = normalize([row[t] for row in reduced])

    for beta, values in zip(nodes, targets):
        for j, v in enumerate(values):
            if hyper_eval(gf, f, beta, j, ambient=t) != v:
                raise AssertionError("interpolation constraints not met")
    return f
