"""The digit space Mat_{n,s}(F_q) and its point view Q^n(q^s).

A word is a tuple of n rows, each a tuple of s field labels.  Row entry
i (0-based) holds the digit of weight q^(i-s) of the corresponding
coordinate, so the LAST entry of a row is the most significant digit.
Serialization and the point view use the opposite, human radix order
(most significant first).  Coordinates are exact Fractions with
denominator dividing q^s; no floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .gf import DIGIT_CHARS, GF, TABLE_BOUND, FieldBoundError

Word = tuple[tuple[int, ...], ...]


def row_weight(row) -> int:
    """Largest 1-based index of a nonzero digit, 0 for a zero row."""
    for i in range(len(row) - 1, -1, -1):
        if row[i]:
            return i + 1
    return 0


def nrt_weight(word: Word) -> int:
    """NRT weight: per-row largest nonzero position, summed over rows."""
    return sum(row_weight(row) for row in word)


def hamming_weight(word: Word) -> int:
    return sum(1 for row in word for v in row if v)


def exponent(q: int, count: int) -> int:
    """The least r >= 0 with q^r >= count."""
    r = 0
    while q ** r < count:
        r += 1
    return r


def truncate_digits(x: Fraction, q: int, s: int) -> Fraction:
    """Projection onto Q(q^s): keep the first s base-q digits of x."""
    if not 0 <= x < 1:
        raise ValueError("coordinate must lie in [0, 1)")
    scaled = x * q ** s
    return Fraction(int(scaled), q ** s)


def digits_of(x: Fraction, q: int, s: int) -> tuple[int, ...]:
    """First s base-q digits of x, most significant first."""
    num = int(x * q ** s)
    out = []
    for i in range(s - 1, -1, -1):
        out.append(num // q ** i % q)
    return tuple(out)


class Space:
    """Parameters (q, n, s) plus the field-aware word operations."""

    def __init__(self, gf: GF, n: int, s: int):
        if n < 1 or s < 1:
            raise ValueError("need n >= 1 and s >= 1")
        self.gf = gf
        self.n = n
        self.s = s

    @property
    def q(self) -> int:
        return self.gf.q

    @property
    def dim(self) -> int:
        return self.n * self.s

    def __eq__(self, other):
        return (isinstance(other, Space) and self.gf == other.gf
                and self.n == other.n and self.s == other.s)

    def __hash__(self):
        return hash((self.gf, self.n, self.s))

    def __repr__(self):
        return f"Space({self.gf!r}, n={self.n}, s={self.s})"

    def check_word(self, word) -> Word:
        word = tuple(tuple(row) for row in word)
        if len(word) != self.n or any(len(row) != self.s for row in word):
            raise ValueError(f"word shape is not {self.n}x{self.s}")
        for row in word:
            for v in row:
                self.gf.check(v)
        return word

    def zero(self) -> Word:
        return tuple((0,) * self.s for _ in range(self.n))

    def add(self, w1: Word, w2: Word) -> Word:
        gf = self.gf
        return tuple(tuple(gf.add(a, b) for a, b in zip(r1, r2))
                     for r1, r2 in zip(w1, w2))

    def neg(self, w: Word) -> Word:
        gf = self.gf
        return tuple(tuple(gf.neg(a) for a in row) for row in w)

    def sub(self, w1: Word, w2: Word) -> Word:
        return self.add(w1, self.neg(w2))

    def scale(self, c: int, w: Word) -> Word:
        gf = self.gf
        return tuple(tuple(gf.mul(c, a) for a in row) for row in w)

    def linear_combine(self, alpha: int, w1: Word, beta: int, w2: Word) -> Word:
        """Digitwise alpha*w1 + beta*w2; the vector space law of Q^n(q^s)."""
        return self.add(self.scale(alpha, w1), self.scale(beta, w2))

    def inner(self, w1: Word, w2: Word) -> int:
        """Reversed pairing: per row sum_i x_i * y_(s+1-i), summed over rows."""
        gf = self.gf
        out = 0
        for r1, r2 in zip(w1, w2):
            for a, b in zip(r1, reversed(r2)):
                out = gf.add(out, gf.mul(a, b))
        return out

    def all_words(self):
        import itertools
        rows = list(itertools.product(range(self.q), repeat=self.s))
        return (w for w in itertools.product(rows, repeat=self.n))

    def random_word(self, rng) -> Word:
        return tuple(tuple(rng.randrange(self.q) for _ in range(self.s))
                     for _ in range(self.n))

    # --- flat (length n*s) views used by the linear algebra ---

    def flatten(self, word: Word) -> tuple[int, ...]:
        return tuple(v for row in word for v in row)

    def unflatten(self, flat) -> Word:
        s = self.s
        return tuple(tuple(flat[j * s:(j + 1) * s]) for j in range(self.n))

    # --- point view ---

    def coordinate(self, row) -> Fraction:
        """Exact value sum_i row[i-1] * q^(i-s-1) of one coordinate."""
        num = 0
        for v in reversed(row):
            num = num * self.q + v
        return Fraction(num, self.q ** self.s)

    def word_to_point(self, word: Word) -> tuple[Fraction, ...]:
        return tuple(self.coordinate(row) for row in word)

    def row_from_coordinate(self, x: Fraction) -> tuple[int, ...]:
        if not 0 <= x < 1:
            raise ValueError("coordinate must lie in [0, 1)")
        scaled = x * self.q ** self.s
        if scaled.denominator != 1:
            raise ValueError(f"{x} is not a q^-s rational for q={self.q}, s={self.s}")
        num = int(scaled)
        return tuple(num // self.q ** i % self.q for i in range(self.s))

    def point_to_word(self, point) -> Word:
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        return tuple(self.row_from_coordinate(Fraction(x)) for x in point)

    # --- base p^e -> base p digit re-expression (value preserving) ---

    def base_p_space(self) -> "Space":
        if self.gf.e == 1:
            return self
        return Space(GF(self.gf.p), self.n, self.s * self.gf.e)

    def word_to_base_p(self, word: Word) -> Word:
        """Expand every q-digit into its e base-p digits, low digit first."""
        if self.gf.e == 1:
            return word
        gf = self.gf
        return tuple(
            tuple(d for v in row for d in gf.coeffs(v))
            for row in word
        )


class Distribution:
    """A multiset of points of Q^n(q^s), stored as their digit words."""

    def __init__(self, space: Space, words=None, array=None):
        import numpy as np

        self.space = space
        self._generator = None  # flat rows whose span this is, see `span`
        if array is not None:
            array = np.asarray(array, dtype=np.int16)
            if array.ndim != 3 or array.shape[1:] != (space.n, space.s):
                raise ValueError("array shape must be (N, n, s)")
            self._array = array
        else:
            rows = [space.check_word(w) for w in words]
            self._array = np.array(rows, dtype=np.int16).reshape(
                len(rows), space.n, space.s)

    @classmethod
    def span(cls, space: Space, rows) -> "Distribution":
        """The q^k combinations of k flat rows, in `bulk.span_array` order
        unless `codes.own_span` kept a file's array beside the rows.
        The rows are kept as the set's generator: `geometry.optimum_report`
        decides the set by a rank certificate on them, and
        `spectra.distance_spectrum` from the origin and
        `codes.corner_box_counts` read the ranks of their prefix profiles
        when there are no more profiles than points (the spectrum is
        otherwise counted in blocks).  The read-only array is built on the
        first call of `array`."""
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        if any(len(r) != space.dim for r in rows):
            raise ValueError("row length mismatch")
        dist = cls.__new__(cls)
        dist.space = space
        dist._generator = rows
        dist._array = None
        return dist

    @classmethod
    def from_points(cls, space: Space, points) -> "Distribution":
        return cls(space, words=[space.point_to_word(p) for p in points])

    def size(self) -> int:
        """The number of points, q^len(rows) for a span (len() stops at 2^63)."""
        if self._generator is not None:
            return self.space.q ** len(self._generator)
        return self._array.shape[0]

    __len__ = size

    def __iter__(self):
        return iter(self.words())

    def array(self):
        """(N, n, s) int array of digit labels, least significant first."""
        if self._array is None:
            from . import bulk

            space = self.space
            arr = bulk.span_array(space.gf, self._generator, space.dim)
            arr.setflags(write=False)
            self._array = arr.reshape(len(arr), space.n, space.s)
        return self._array

    def eta_array(self):
        """(N, n, s) digits in radix order, most significant first."""
        return self.array()[:, :, ::-1]

    def words(self):
        return [tuple(tuple(int(v) for v in row) for row in w)
                for w in self.array()]

    def word(self, i: int) -> Word:
        return tuple(tuple(int(v) for v in row) for row in self.array()[i])

    def points(self):
        return [self.space.word_to_point(w) for w in self.words()]

    def project(self, s: int) -> "Distribution":
        """Truncate every coordinate to its s most significant digits."""
        if s > self.space.s:
            raise ValueError("projection depth exceeds stored digits")
        sub = Space(self.space.gf, self.space.n, s)
        return Distribution(sub, array=self.array()[:, :, self.space.s - s:])

    def to_base_p(self) -> "Distribution":
        space_p = self.space.base_p_space()
        if space_p is self.space:
            return self
        import numpy as np

        coeff = self.space.gf.coeff_table  # (q, e) low digit first
        expanded = coeff[self.array()]     # (N, n, s, e)
        return Distribution(space_p, array=expanded.reshape(
            len(self), self.space.n, space_p.s).astype(np.int16))


class PointFileError(ValueError):
    """Malformed point-set or code file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_point_set(stream, dist: Distribution, comments=()) -> None:
    """Header "q n s N" preceded by the field line when e > 1, then one
    line per point: n digit strings, most significant digit first."""
    import numpy as np

    space = dist.space
    if space.q > len(DIGIT_CHARS):
        raise ValueError("text digit format supports q <= 36")
    for c in comments:
        stream.write(f"# {c}\n")
    if space.gf.e > 1:
        stream.write(space.gf.describe() + "\n")
    stream.write(f"{space.q} {space.n} {space.s} {len(dist)}\n")
    # each coordinate is s digit bytes plus a space, the last one a newline
    text = np.full((len(dist), space.n, space.s + 1), ord(" "), dtype=np.uint8)
    text[:, :, :-1] = np.frombuffer(DIGIT_CHARS.encode(), dtype=np.uint8)[dist.eta_array()]
    text[:, -1, -1] = ord("\n")
    stream.write(text.tobytes().decode("ascii"))


def _content_lines(stream):
    for lineno, raw in enumerate(stream, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def _read_header(lines, kind: str):
    try:
        lineno, text = next(lines)
    except StopIteration:
        raise PointFileError("empty file", 1) from None
    parts = text.split()
    field = None
    if len(parts) != 4:
        try:
            field = GF.from_description(text)
        except FieldBoundError as exc:
            raise PointFileError(str(exc), lineno) from None
        except ValueError:
            raise PointFileError("expected field line or 4-value header", lineno) from None
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise PointFileError("missing header after field line", lineno) from None
        parts = text.split()
        if len(parts) != 4:
            raise PointFileError("expected header 'q n s N'", lineno)
    try:
        q, n, s, count = (int(x) for x in parts)
    except ValueError:
        raise PointFileError("header values must be integers", lineno) from None
    if field is None:
        if q > TABLE_BOUND:
            raise PointFileError(f"q = {q} exceeds the field bound {TABLE_BOUND}", lineno)
        try:
            field = GF(q)
        except ValueError:
            raise PointFileError(
                f"q = {q} is not prime; a field description line is required",
                lineno) from None
    elif field.q != q:
        raise PointFileError("field line and header disagree on q", lineno)
    if q < 2 or n < 1 or s < 1 or count < 0:
        raise PointFileError(f"bad {kind} header parameters", lineno)
    return field, n, s, count, lineno


def _digit_table():
    """Byte -> digit value for both letter cases; 255 marks a bad digit."""
    import numpy as np

    table = np.full(256, 255, dtype=np.uint8)
    for d, ch in enumerate(DIGIT_CHARS):
        table[ord(ch)] = table[ord(ch.upper())] = d
    return table


def read_point_set(stream) -> Distribution:
    """Parse a point file; errors are `PointFileError`s naming the first
    offending line, checked in file order (coordinate count, then per
    digit string: length, bad digit, digit >= q)."""
    import numpy as np
    from itertools import islice

    lines = _content_lines(stream)
    field, n, s, count, lineno = _read_header(lines, "point set")
    space = Space(field, n, s)
    # the lines are read before anything is sized by the header's count
    linenos, tokens, short_line = [], [], None
    for lineno, text in islice(lines, count):
        row = text.split()
        if len(row) != n:
            short_line = lineno
            break
        linenos.append(lineno)
        tokens += row
    lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    wrong_length = np.flatnonzero(lengths != s)
    # every token before the first one of a wrong length is s bytes long
    good = int(wrong_length[0]) if wrong_length.size else len(tokens)
    # non-ASCII characters become "?", a bad digit, one byte per character
    raw = "".join(tokens).encode("ascii", "replace")[:good * s]
    digits = _digit_table()[np.frombuffer(raw, dtype=np.uint8).reshape(good, s)]
    # every digit is below 36, so this also flags the bad ones (255)
    invalid = (digits >= min(space.q, len(DIGIT_CHARS))).any(axis=1)
    if invalid.any():
        bad = int(np.argmax(invalid))
        token = tokens[bad]
        what = "bad digit" if (digits[bad] == 255).any() else "digit out of range"
        raise PointFileError(f"{what} in {token!r}", linenos[bad // n])
    if good < len(tokens):
        raise PointFileError(f"digit string {tokens[good]!r} is not {s} long",
                             linenos[good // n])
    if short_line is not None:
        raise PointFileError(f"expected {n} coordinates", short_line)
    if len(linenos) < count:
        raise PointFileError("fewer points than the header promised", lineno)
    eta = digits.reshape(count, n, s)[:, :, ::-1].astype(np.int16)
    return Distribution(space, array=eta)
