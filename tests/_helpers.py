"""Shared helpers for the test suite."""

import numpy as np

from nrtcodes.codes import LinearCode
from nrtcodes.gf import DIGIT_CHARS
from nrtcodes.words import PointFileError, _content_lines, _read_header


def random_code(space, k, rng):
    """A uniformly random k-dimensional code (resampling until full rank)."""
    while True:
        rows = [space.flatten(space.random_word(rng)) for _ in range(k)]
        code = LinearCode(space, rows)
        if code.k == k:
            return code


def all_subspaces(space):
    """Every linear code of the space, found by closing under extensions."""
    zero = LinearCode.zero(space)
    seen = {zero.basis: zero}
    frontier = [zero]
    vectors = [space.flatten(w) for w in space.all_words()]
    while frontier:
        nxt = []
        for code in frontier:
            for v in vectors:
                if any(v):
                    bigger = LinearCode(space, list(code.basis) + [list(v)])
                    if bigger.basis not in seen:
                        seen[bigger.basis] = bigger
                        nxt.append(bigger)
        frontier = nxt
    return list(seen.values())


def schoolbook_add(gf, a, b):
    """Digitwise sum mod p, the addition oracle of the field tables."""
    return gf.from_coeffs([(x + y) % gf.p for x, y in zip(gf.coeffs(a), gf.coeffs(b))])


def schoolbook_mul(gf, a, b):
    """Product of the digit polynomials of a and b reduced modulo the field
    polynomial over F_p, the multiplication oracle of the field tables."""
    p, e, modulus = gf.p, gf.e, gf.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(gf.coeffs(a)):
        for j, y in enumerate(gf.coeffs(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    # z^top = z^(top-e) * z^e, and the modulus is monic
    for top in reversed(range(e, 2 * e - 1)):
        c = prod[top]
        for i, m in enumerate(modulus):
            prod[top - e + i] = (prod[top - e + i] - c * m) % p
    return gf.from_coeffs(prod[:e])


def _parse_row(q, s, token, line):
    if len(token) != s:
        raise PointFileError(f"digit string {token!r} is not {s} long", line)
    try:
        eta = [DIGIT_CHARS.index(ch) for ch in token.lower()]
    except ValueError:
        raise PointFileError(f"bad digit in {token!r}", line) from None
    if any(d >= q for d in eta):
        raise PointFileError(f"digit out of range in {token!r}", line)
    return eta


def read_point_array_by_line(stream):
    """Line-by-line point-file parser, the oracle of `read_point_set`:
    returns the (N, n, s) label array, least significant digit first."""
    lines = _content_lines(stream)
    field, n, s, count, lineno = _read_header(lines, "point set")
    eta = []
    for _ in range(count):
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise PointFileError("fewer points than the header promised", lineno) from None
        tokens = text.split()
        if len(tokens) != n:
            raise PointFileError(f"expected {n} coordinates", lineno)
        eta.append([_parse_row(field.q, s, t, lineno) for t in tokens])
    eta = np.array(eta, dtype=np.int16).reshape(count, n, s)
    return np.ascontiguousarray(eta[:, :, ::-1])


def span_array_by_passes(gf, rows, width):
    """The k-pass span enumeration, the oracle of `bulk.span_array`:
    combination i takes digit m of i in base q as the coefficient of row m."""
    q = gf.q
    count = q ** len(rows)
    out = np.zeros((count, width), dtype=np.int16)
    idx = np.arange(count)
    for m, row in enumerate(rows):
        c = (idx // q ** m) % q
        scaled = gf.mul_table[np.asarray(row, dtype=np.intp)[None, :], c[:, None]]
        out = gf.add_table[out, scaled]
    return out
