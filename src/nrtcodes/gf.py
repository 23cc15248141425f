"""Exact arithmetic in GF(p^e) over a fixed polynomial basis.

Field elements are integer labels 0..q-1.  The label of the element with
coordinates (mu_1, ..., mu_e) in the basis 1, z, ..., z^(e-1) is
sum(mu_i * p^(i-1)), so labels double as base-p digit vectors.  Elements
of the prime subfield keep their residue as label, hence small integer
constants can be used directly.

Multiplication uses log/antilog tables for q <= 2^12 and schoolbook
reduction modulo the field polynomial above that.
"""

from __future__ import annotations

import math

DEFAULT_Q_BOUND = 1 << 16
LOG_TABLE_BOUND = 1 << 12
BULK_TABLE_BOUND = 1 << 10

DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, math.isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# --- polynomials over F_p as coefficient lists (constant term first) ---

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv_lead % p
        shift = len(f) - 1 - dg
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        _ptrim(f)
    return f


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    e = len(f) - 1
    if e <= 0:
        return False
    if e == 1:
        return True
    for deg in range(1, e // 2 + 1):
        for code in range(p ** deg):
            g = [0] * (deg + 1)
            g[-1] = 1
            c = code
            for i in range(deg):
                g[i] = c % p
                c //= p
            if not _pmod(f, g, p):
                return False
    return True


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e, low coefficients compared
    first as a base-p integer."""
    if e == 1:
        return (0, 1)
    for code in range(p ** e):
        f = [0] * (e + 1)
        f[-1] = 1
        c = code
        for i in range(e):
            f[i] = c % p
            c //= p
        if _is_irreducible(f, p):
            return tuple(f)
    raise ValueError(f"no irreducible polynomial of degree {e} over F_{p}")


class GF:
    """The finite field F_q, q = p^e, acting on integer labels 0..q-1.

    Parameters
    ----------
    p : prime characteristic
    e : extension degree
    modulus : optional coefficient list of a monic irreducible of degree e
        over F_p (constant term first); defaults to the smallest one.
    """

    def __init__(self, p: int, e: int = 1, modulus=None, q_bound: int = DEFAULT_Q_BOUND):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** e
        if q > q_bound:
            raise ValueError(f"q = {q} exceeds the configured bound {q_bound}")
        self.p = p
        self.e = e
        self.q = q
        if modulus is None:
            self.modulus = default_modulus(p, e)
        else:
            self.modulus = tuple(int(c) % p for c in modulus)
            if len(self.modulus) != e + 1 or self.modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _is_irreducible(list(self.modulus), p):
                raise ValueError("modulus is reducible over F_p")

        self._exp = None
        self._log = None
        if e > 1 and q <= LOG_TABLE_BOUND:
            self._build_log_tables()
        self._np_tables = {}

    # --- representation ---

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def describe(self) -> str:
        """Header form "p e c0 c1 ... ce" (modulus constant term first)."""
        return " ".join(str(v) for v in (self.p, self.e) + self.modulus)

    @classmethod
    def from_description(cls, text: str) -> "GF":
        parts = [int(t) for t in text.split()]
        if len(parts) < 3:
            raise ValueError("field description needs p, e and modulus coefficients")
        return cls(parts[0], parts[1], modulus=parts[2:])

    def elements(self) -> range:
        return range(self.q)

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"label {a} out of range for {self!r}")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector (mu_1, ..., mu_e) of a label."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, mu) -> int:
        if len(mu) != self.e:
            raise ValueError("coordinate vector has wrong length")
        a = 0
        for i in reversed(range(self.e)):
            a = a * self.p + mu[i] % self.p
        return a

    # --- arithmetic ---

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _schoolbook_mul(self, a: int, b: int) -> int:
        prod = _pmul(list(self.coeffs(a)), list(self.coeffs(b)), self.p)
        rem = _pmod(prod, list(self.modulus), self.p)
        rem += [0] * (self.e - len(rem))
        return self.from_coeffs(rem)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._schoolbook_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, m: int) -> int:
        if m == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] * (m % (self.q - 1)) % (self.q - 1)]
        out = 1
        base = a
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def trace(self, a: int) -> int:
        """Trace to F_p: a + a^p + ... + a^(p^(e-1)).  Result label < p."""
        acc = 0
        x = a
        for _ in range(self.e):
            acc = self.add(acc, x)
            x = self.pow(x, self.p)
        if acc >= self.p:
            raise AssertionError("trace left the prime subfield")
        return acc

    def _build_log_tables(self):
        q = self.q
        gen = None
        factors = _prime_factors(q - 1)
        for g in range(2, q):
            ok = True
            for ell in factors:
                x = 1
                m = (q - 1) // ell
                base = g
                mm = m
                while mm:
                    if mm & 1:
                        x = self._schoolbook_mul(x, base)
                    base = self._schoolbook_mul(base, base)
                    mm >>= 1
                if x == 1:
                    ok = False
                    break
            if ok:
                gen = g
                break
        exp = [0] * (2 * q)
        log = [0] * q
        val = 1
        for i in range(q - 1):
            exp[i] = val
            exp[i + q - 1] = val
            log[val] = i
            val = self._schoolbook_mul(val, gen)
        self._exp = exp
        self._log = log

    # --- lazy numpy lookup tables for bulk enumeration ---

    def _table(self, name: str):
        tab = self._np_tables.get(name)
        if tab is not None:
            return tab
        import numpy as np

        q = self.q
        if name in ("add", "mul") and q > BULK_TABLE_BOUND:
            raise ValueError(f"bulk tables disabled for q = {q} > {BULK_TABLE_BOUND}")
        if name == "add":
            tab = np.array([[self.add(a, b) for b in range(q)] for a in range(q)],
                           dtype=np.int16)
        elif name == "mul":
            tab = np.array([[self.mul(a, b) for b in range(q)] for a in range(q)],
                           dtype=np.int16)
        elif name == "neg":
            tab = np.array([self.neg(a) for a in range(q)], dtype=np.int16)
        elif name == "trace":
            tab = np.array([self.trace(a) for a in range(q)], dtype=np.int16)
        elif name == "coeff":
            tab = np.array([self.coeffs(a) for a in range(q)], dtype=np.int16)
        else:
            raise KeyError(name)
        self._np_tables[name] = tab
        return tab

    @property
    def add_table(self):
        return self._table("add")

    @property
    def mul_table(self):
        return self._table("mul")

    @property
    def neg_table(self):
        return self._table("neg")

    @property
    def trace_table(self):
        return self._table("trace")

    @property
    def coeff_table(self):
        return self._table("coeff")
