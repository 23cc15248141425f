"""Exact arithmetic in GF(p^e) over a fixed polynomial basis.

Field elements are integer labels 0..q-1.  The label of the element with
coordinates (mu_1, ..., mu_e) in the basis 1, z, ..., z^(e-1) is
sum(mu_i * p^(i-1)), so labels double as base-p digit vectors.  Elements
of the prime subfield keep their residue as label, hence small integer
constants can be used directly.

All arithmetic is table lookup.  The tables are built once per field, on
first use, and shared by equal fields.  The `*_lookup` tuples are the one
table set, built in pure Python: addition and negation digitwise mod p,
one base-p digit at a time from rotations of range(p); multiplication
from the exp and log tables of a primitive element, found with the
multiply-by-z map; inverses from the logs and traces from Frobenius
powers.  The `*_table` numpy arrays for bulk work are derived from the
lookups, on first access to one of them, so scalar work never imports
numpy.  Fields are limited to q <= TABLE_BOUND, which keeps each q x q
table small.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import itemgetter

TABLE_BOUND = 1 << 10

DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

# each set is fetched together on first access to one of its names:
# `*_lookup` tuples for scalar work, built without numpy, and `*_table`
# read-only int16 numpy arrays of the same entries for bulk work, derived
# from the lookups (`coeff_table` holds the base-p digits of each label)
_LOOKUP_NAMES = frozenset(
    ("add_lookup", "mul_lookup", "neg_lookup", "inv_lookup", "trace_lookup"))
_TABLE_NAMES = frozenset(
    ("add_table", "mul_table", "neg_table", "trace_table", "coeff_table"))


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
    """Trial division by every monic polynomial of degree <= deg(f)/2;
    f has degree at least 2."""
    e = len(f) - 1
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


@functools.cache
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
        over F_p (constant term first); defaults to the smallest one.  Every
        monic modulus of degree 1 gives the labels of F_p, and is held as
        (0, 1), so GF(p, 1, modulus=m) == GF(p).
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        # before the primality test and p^e, whose costs grow with p and e
        if p > TABLE_BOUND or e > TABLE_BOUND or e * math.log10(max(p, 1)) > 20:
            q = p if e == 1 else f"{p}^{e}"
            raise FieldBoundError(f"q = {q} exceeds the field bound {TABLE_BOUND}")
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
            if e == 1:
                self.modulus = (0, 1)
            elif not _is_irreducible(list(self.modulus), p):
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
        # reached only while a table set is missing, so each is fetched once
        if name in _LOOKUP_NAMES:
            build = _field_lookups
        elif name in _TABLE_NAMES:
            build = _field_arrays
        else:
            raise AttributeError(name)
        self.__dict__.update(build(self.p, self.e, self.modulus))
        return self.__dict__[name]


# Equal fields share one read-only set of lookups, and one of arrays, so a
# program that builds GF(q) afresh for each task builds its tables once.
# The caches are bounded because the tables at q = 1024 take about 21 MB.
@functools.lru_cache(maxsize=16)
def _field_lookups(p: int, e: int, modulus: tuple[int, ...]) -> dict:
    q = p ** e
    labels = tuple(range(q))  # one int object per label, shared by all rows
    digit = labels[:p]
    add = tuple(digit[h:] + digit[:h] for h in range(p))
    neg = tuple(digit[-h] for h in range(p))
    for d in range(1, e):
        # a label a + size h, h its new top digit, adds as a in the table
        # so far with size (h + h') mod p on top
        size = p ** d
        lifted = [[itemgetter(*row)(labels[size * top:]) for row in add]
                  for top in range(p)]
        add = tuple(sum((lifted[(h + t) % p][a] for t in range(p)), ())
                    for h in range(p) for a in range(size))
        neg = tuple(labels[v + size * (-h % p)] for h in range(p) for v in neg)

    def linear(images):
        # the F_p-linear map sending label p^j to images[j], on every label
        out = [0]
        for image in images:
            shift = add[image]
            prev = out
            for _ in range(p - 1):
                prev = [shift[v] for v in prev]
                out += prev
        return out

    # z * z^j = z^(j+1), and z^e = -(m_0 + ... + m_(e-1) z^(e-1))
    top = sum(-c % p * p ** i for i, c in enumerate(modulus[:e]))
    times_z = linear([p ** (j + 1) for j in range(e - 1)] + [top])
    # z need not be primitive (GF(3, 2) has z^2 = -1), so try each label g,
    # multiplying by it through its images g z^j of the basis
    for g in range(1, q):
        images = [g]
        for _ in range(e - 1):
            images.append(times_z[images[-1]])
        times_g = linear(images)
        exp = [1]
        x = times_g[1]
        while x != 1:
            exp.append(x)
            x = times_g[x]
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i
    exp2 = tuple(exp + exp)
    # row a gathers exp[log a + log b] for b = 1..q-1; itemgetter of one
    # index returns the item itself, so q = 2 takes a slice
    gather = itemgetter(*log[1:]) if q > 2 else (lambda seq: seq[:1])
    mul = ((0,) * q,) + tuple((0,) + gather(exp2[log[a]:]) for a in range(1, q))
    inv = (0,) + tuple(exp2[q - 1 - log[a]] for a in range(1, q))
    frobenius = (0,) + tuple(exp2[p * log[a] % (q - 1)] for a in range(1, q))
    trace = [0] * q
    conj = labels
    for _ in range(e):
        trace = [add[t][c] for t, c in zip(trace, conj)]
        conj = [frobenius[c] for c in conj]
    return {"add_lookup": add, "mul_lookup": mul, "neg_lookup": neg,
            "inv_lookup": inv, "trace_lookup": tuple(trace)}


@functools.lru_cache(maxsize=16)
def _field_arrays(p: int, e: int, modulus: tuple[int, ...]) -> dict:
    import numpy as np

    lookups = _field_lookups(p, e, modulus)
    q = p ** e
    coeff = (label // p ** j % p for label in range(q) for j in range(e))
    tables = {}
    for name, values, shape in (
            ("add", chain.from_iterable(lookups["add_lookup"]), (q, q)),
            ("mul", chain.from_iterable(lookups["mul_lookup"]), (q, q)),
            ("neg", lookups["neg_lookup"], (q,)),
            ("trace", lookups["trace_lookup"], (q,)),
            ("coeff", coeff, (q, e))):
        table = np.fromiter(values, dtype=np.int16, count=math.prod(shape))
        table = table.reshape(shape)
        table.setflags(write=False)
        tables[f"{name}_table"] = table
    return tables
