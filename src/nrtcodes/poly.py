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


def poly_neg(gf: GF, f):
    return [gf.neg(a) for a in f]


def poly_sub(gf: GF, f, g):
    return poly_add(gf, f, poly_neg(gf, g))


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


def poly_mod(gf: GF, f, g):
    return poly_divmod(gf, f, g)[1]


def poly_xgcd(gf: GF, f, g):
    """Extended Euclid: returns (d, u, v) with u*f + v*g = d, d monic."""
    r0, r1 = list(f), list(g)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = poly_divmod(gf, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(gf, u0, poly_mul(gf, q, u1))
        v0, v1 = v1, poly_sub(gf, v0, poly_mul(gf, q, v1))
    if r0:
        c = gf.inv(r0[-1])
        r0 = poly_scale(gf, r0, c)
        u0 = poly_scale(gf, u0, c)
        v0 = poly_scale(gf, v0, c)
    return r0, u0, v0


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


def _crt_pair(gf, f, mod_f, r, mod_r):
    # find h = f + mod_f * u with h = r (mod mod_r)
    d, u, _ = poly_xgcd(gf, mod_f, mod_r)
    if degree(d) != 0:
        raise ValueError("moduli are not coprime")
    delta = poly_mod(gf, poly_sub(gf, r, f), mod_r)
    corr = poly_mod(gf, poly_mul(gf, delta, u), mod_r)
    return poly_add(gf, f, poly_mul(gf, mod_f, corr))


def hermite_interpolate(gf: GF, nodes, mults, targets):
    """Unique f of degree < t with prescribed hyperderivative values.

    nodes: pairwise distinct labels, optionally one INF.
    mults: per-node multiplicities t_i, sum t.
    targets: per node i, the t_i values d^j f(node_i) for j = 0..t_i-1.

    Solved by chained CRT in F_q[z] on the moduli (z - beta_i)^(t_i); an
    INF node is peeled off first by fixing the top coefficients.
    """
    if not (len(nodes) == len(mults) == len(targets)):
        raise ValueError("inconsistent dimensions")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    for i, tg in enumerate(targets):
        if len(tg) != mults[i]:
            raise ValueError("inconsistent dimensions")
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate nodes")
    t = sum(mults)

    if INF in nodes:
        idx = nodes.index(INF)
        t_inf = mults[idx]
        top = [0] * t
        for j, v in enumerate(targets[idx]):
            top[t - 1 - j] = v
        top = normalize(top)
        rest_nodes = [b for i, b in enumerate(nodes) if i != idx]
        rest_mults = [m for i, m in enumerate(mults) if i != idx]
        rest_targets = [
            [gf.sub(v, hyper_eval(gf, top, b, j))
             for j, v in enumerate(targets[i])]
            for i, b in enumerate(nodes) if i != idx
        ]
        g = hermite_interpolate(gf, rest_nodes, rest_mults, rest_targets)
        f = poly_add(gf, g, top)
    else:
        f: list[int] = []
        modulus = [1]
        for beta, t_i, values in zip(nodes, mults, targets):
            r_i = from_taylor(gf, values, beta)
            m_i = linear_factor_power(gf, beta, t_i)
            f = _crt_pair(gf, f, modulus, r_i, m_i)
            modulus = poly_mul(gf, modulus, m_i)

    if degree(f) >= t:
        raise AssertionError("interpolant degree out of range")
    for beta, t_i, values in zip(nodes, mults, targets):
        for j, v in enumerate(values):
            if hyper_eval(gf, f, beta, j, ambient=t) != v:
                raise AssertionError("interpolation constraints not met")
    return f
