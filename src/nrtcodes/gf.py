"""Exact arithmetic in GF(p^e) over a fixed polynomial basis.

Field elements are integer labels 0..q-1.  The label of the element with
coordinates (mu_1, ..., mu_e) in the basis 1, z, ..., z^(e-1) is
sum(mu_i * p^(i-1)), so labels double as base-p digit vectors.  Elements
of the prime subfield keep their residue as label, hence small integer
constants can be used directly.

All arithmetic is table lookup.  The tables are built once per field, on
first use, and shared by equal fields.  They come from the digit vectors:
addition and negation digitwise mod p, multiplication by folding
a_i * (z^i b) over the digits a_i of a, where the multiples z^i b come
from the multiply-by-z map, and inverses and traces read off those.
Fields are limited to q <= TABLE_BOUND, which keeps each q x q table
small.
"""

from __future__ import annotations

import functools
import math

TABLE_BOUND = 1 << 10

DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

# fetched together on first access; `*_table` are read-only int16 numpy
# arrays for bulk work, `*_lookup` tuples of the same entries for scalar work
_TABLE_NAMES = frozenset(
    ("add_table", "mul_table", "neg_table", "trace_table", "coeff_table",
     "add_lookup", "mul_lookup", "neg_lookup", "inv_lookup", "trace_lookup"))


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, math.isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


def _pmod(f, g, p):
    """Remainder of f modulo the monic g over F_p, as coefficient lists
    (constant term first); zero is the empty list."""
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        c = f[-1]
        shift = len(f) - 1 - dg
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        while f and f[-1] == 0:
            f.pop()
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


class FieldBoundError(ValueError):
    """A field with q above TABLE_BOUND was asked for."""


class GF:
    """The finite field F_q, q = p^e <= TABLE_BOUND, acting on integer
    labels 0..q-1.

    Parameters
    ----------
    p : prime characteristic
    e : extension degree
    modulus : optional coefficient list of a monic irreducible of degree e
        over F_p (constant term first); defaults to the smallest one.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** e
        if q > TABLE_BOUND:
            raise FieldBoundError(f"q = {q} exceeds the field bound {TABLE_BOUND}")
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
        return self.add_lookup[a][b]

    def neg(self, a: int) -> int:
        return self.neg_lookup[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_lookup[a][self.neg_lookup[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_lookup[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return self.inv_lookup[a]

    def pow(self, a: int, m: int) -> int:
        """a^m for m >= 0 by square-and-multiply, with 0^0 = 1."""
        if m < 0:
            raise ValueError("negative exponent")
        mul = self.mul_lookup
        out = 1
        while m:
            if m & 1:
                out = mul[out][a]
            a = mul[a][a]
            m >>= 1
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def trace(self, a: int) -> int:
        """Trace to F_p: a + a^p + ... + a^(p^(e-1)).  Result label < p."""
        return self.trace_lookup[a]

    # --- tables ---

    def __getattr__(self, name):
        # reached only while the tables are missing, so they are fetched once
        if name not in _TABLE_NAMES:
            raise AttributeError(name)
        self.__dict__.update(_field_tables(self.p, self.e, self.modulus))
        return self.__dict__[name]


# Equal fields share one read-only set of tables, so a program that builds
# GF(q) afresh for each task builds its tables once.  The cache is bounded
# because tables at q = 1024 take about 21 MB.
@functools.lru_cache(maxsize=16)
def _field_tables(p: int, e: int, modulus: tuple[int, ...]) -> dict:
    import numpy as np

    q = p ** e
    labels = np.arange(q, dtype=np.int32)  # int32 halves the q x q temporaries
    place = p ** np.arange(e, dtype=np.int32)
    coeff = labels[:, None] // place % p  # (q, e), low digit first
    add = sum((coeff[:, None, j] + coeff[None, :, j]) % p * place[j] for j in range(e))
    # z * b: digits move up one place and z^e = -(m_0 + ... + m_(e-1) z^(e-1))
    shifted = np.concatenate([np.zeros((q, 1), dtype=coeff.dtype), coeff[:, :-1]], axis=1)
    times_z = (shifted - coeff[:, -1:] * np.array(modulus[:e])) % p @ place
    z_multiples = [labels]  # z^i * b for every b
    for _ in range(e - 1):
        z_multiples.append(times_z[z_multiples[-1]])
    z_digits = coeff[np.array(z_multiples)]  # (i, b, j): digit j of z^i b
    # digit j of a*b = sum_i a_i * (digit j of z^i b) mod p
    mul = sum(coeff @ z_digits[:, :, j] % p * place[j] for j in range(e))
    frobenius = labels  # a -> a^p
    for _ in range(p - 1):
        frobenius = mul[frobenius, labels]
    trace = np.zeros(q, dtype=labels.dtype)
    conj = labels
    for _ in range(e):
        trace = add[trace, conj]
        conj = frobenius[conj]
    if (trace >= p).any():
        raise AssertionError("trace left the prime subfield")
    # a*b = 1 has one solution b per a != 0; row 0 gives 0
    inv = np.argmax(mul == 1, axis=1)
    neg = -coeff % p @ place

    tables = {}
    for name, tab in (("add", add), ("mul", mul), ("neg", neg), ("trace", trace),
                      ("coeff", coeff)):
        tables[f"{name}_table"] = tab.astype(np.int16)
        tables[f"{name}_table"].setflags(write=False)
    shared = labels.tolist()  # one int object per label, shared by all rows
    for name, tab in (("add", add), ("mul", mul)):
        tables[f"{name}_lookup"] = tuple(tuple(map(shared.__getitem__, row.tolist()))
                                         for row in tab)
    for name, tab in (("neg", neg), ("inv", inv), ("trace", trace)):
        tables[f"{name}_lookup"] = tuple(tab.tolist())
    return tables
