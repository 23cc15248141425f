"""The digit space Mat_{n,s}(F_q) and its point view Q^n(q^s).

A word is a tuple of n rows, each a tuple of s field labels.  Row entry
i (0-based) holds the digit of weight q^(i-s) of the corresponding
coordinate, so the LAST entry of a row is the most significant digit.
Serialization and the point view use the opposite, human radix order
(most significant first).  Coordinates are exact Fractions with
denominator dividing q^s; no floating point is involved anywhere.
"""

from __future__ import annotations

import io
import itertools
import re

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

    def inner(self, w1: Word, w2: Word) -> int:
        """Reversed pairing: per row sum_i x_i * y_(s+1-i), summed over rows."""
        gf = self.gf
        out = 0
        for r1, r2 in zip(w1, w2):
            for a, b in zip(r1, reversed(r2)):
                out = gf.add(out, gf.mul(a, b))
        return out

    # --- flat (length n*s) views used by the linear algebra ---

    def flatten(self, word: Word) -> tuple[int, ...]:
        return tuple(v for row in word for v in row)

    def unflatten(self, flat) -> Word:
        s = self.s
        return tuple(tuple(flat[j * s:(j + 1) * s]) for j in range(self.n))

    # --- point view ---

    def coordinate(self, row) -> Fraction:
        """Exact value sum_i row[i-1] * q^(i-s-1) of one coordinate."""
        from fractions import Fraction

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
        from fractions import Fraction

        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        return tuple(self.row_from_coordinate(Fraction(x)) for x in point)

    # --- base p^e -> base p digit re-expression (value preserving) ---

    def base_p_space(self) -> "Space":
        if self.gf.e == 1:
            return self
        return Space(GF(self.gf.p), self.n, self.s * self.gf.e)


class Distribution:
    """A multiset of points of Q^n(q^s), stored as their digit words: an
    (N, n, s) label `array` (given, or built from `words`), a `generator`
    of k flat rows and a flat `offset` x0 (zero when omitted), whose points
    are x0 plus the q^k combinations of the rows in `bulk.span_array`
    order (a lazy span, or a lazy coset x0 + span: its read-only array is
    built on the first call of `array`), or both: then the array holds
    x0 + span(generator) once each, in its own order, and only
    `codes.own_span` and `reshaped` build this form.  Only this class
    stores the offset.  A set is linear iff its offset lies in the span of
    its generator; a digital shift permutes the boxes of every family, so
    a coset is decided from its rows as its span is.  Every certificate,
    count and witness of a set with a generator reads its one
    `codes.LinearCode`, `code()`, reduced on the first call and held like
    the array; a reader or builder that reduced the rows hands it on."""

    def __init__(self, space: Space, words=None, array=None, generator=None, offset=None):
        self.space = space
        self.generator = self.offset = None
        if generator is not None:
            self.generator = tuple(tuple(int(v) for v in r) for r in generator)
            if any(len(r) != space.dim for r in self.generator):
                raise ValueError("row length mismatch")
            if offset is not None and any(offset):
                self.offset = tuple(int(v) for v in offset)
                if len(self.offset) != space.dim:
                    raise ValueError("offset length mismatch")
        elif offset is not None:
            raise ValueError("an offset needs a generator")
        if generator is None or array is not None:  # a lazy span loads no numpy
            import numpy as np

            if array is None:
                rows = [space.check_word(w) for w in words]
                array = np.array(rows, dtype=np.int16).reshape(len(rows), space.n, space.s)
            array = np.asarray(array, dtype=np.int16)
            if array.ndim != 3 or array.shape[1:] != (space.n, space.s):
                raise ValueError("array shape must be (N, n, s)")
        self._array, self._code = array, None

    def __len__(self):
        """The number of points (len() refuses 2^63 or more; `exponent` does not)."""
        return self.space.q ** len(self.generator) if self._array is None else len(self._array)

    def exponent(self) -> int | None:
        """The k of the set's q^k points: the generator's length for a
        span, else the k with q^k = N, None if N is no power of q."""
        if self.generator is not None:
            return len(self.generator)
        k = exponent(self.space.q, len(self))
        return k if self.space.q ** k == len(self) else None

    def reshaped(self, space: Space) -> "Distribution":
        """The same words in a space of the same n*s: each word's flat
        digits, and so the generator rows, the offset and a held code's
        basis, cut into rows of the new length.  A lazy span stays lazy."""
        arr, code = self._array, self._code
        out = Distribution(space, generator=self.generator, offset=self.offset,
                           array=None if arr is None else arr.reshape(len(arr), space.n, space.s))
        # an RREF of flat rows is one for any (n, s)
        return out._holding(None if code is None else type(code)._reduced(space, code.basis))

    def __iter__(self):
        return iter(self.words())

    def array(self):
        """(N, n, s) int array of digit labels, least significant first."""
        if self._array is None:
            from . import bulk

            space = self.space
            arr = bulk.span_array(space.gf, self.generator, space.dim, self.offset)
            arr.setflags(write=False)
            self._array = arr.reshape(len(arr), space.n, space.s)
        return self._array

    def code(self):
        """The `codes.LinearCode` of the generator rows, reduced once, held."""
        if self._code is None and self.generator is not None:
            from .codes import LinearCode

            self._code = LinearCode(self.space, self.generator)
        return self._code

    def _holding(self, code) -> "Distribution":
        """This set, holding `code` (None or the code of its generator)."""
        self._code = code
        return self

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
        coeff = self.space.gf.coeff_table  # (q, e) int16, low digit first
        expanded = coeff[self.array()]     # (N, n, s, e)
        return Distribution(space_p, array=expanded.reshape(len(self), space_p.n, space_p.s))


class PointFileError(ValueError):
    """Malformed point-set or code file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _write(stream, space: Space, count: int, comments, chunks) -> None:
    """The comment lines, the field line when e > 1 and the header
    "q n s count" of a point or code file, then its ASCII body, the
    bytes-like `chunks` in turn; a text stream gets them as text."""
    head = [f"# {c}\n" for c in comments]
    if space.gf.e > 1:
        head.append(space.gf.describe() + "\n")
    head.append(f"{space.q} {space.n} {space.s} {count}\n")
    text = isinstance(stream, io.TextIOBase)
    for data in itertools.chain(["".join(head).encode()], chunks):
        stream.write(bytes(data).decode() if text else data)


# points per block: the text writer, the reader as it compares a file
# with a span's text, and `bulk`'s span passes hold one block at a time
_BLOCK = 1 << 14


def _add_tables(gf: GF, alphabet: bytes) -> list[bytes]:
    """For each label v, the `bytes.translate` table that maps the byte
    of label a to byte a + v of `alphabet`."""
    add, q = gf.add_lookup, gf.q
    return [bytes(alphabet[add[a][v]] for a in range(q)).ljust(256, b"\0") for v in range(q)]


def _span_columns(gf: GF, rows, width: int, offset=None) -> list[bytes]:
    """The flat `offset` (zero when None) plus each of the q^k combinations
    of the flat `rows` in `bulk.span_array` order, as `width` columns of
    one label byte per combination (q <= 256).  Combination c*q^m + j is
    combination j plus c times row m: after row m a column is q blocks of
    the column before, block c that column translated by c * row[m]; the
    columns start from the offset's digits."""
    shift, mul = _add_tables(gf, bytes(range(gf.q))), gf.mul_lookup
    # the span of no rows: the offset alone
    columns = [bytes([v]) for v in offset] if offset else [b"\0"] * width
    for row in rows:
        columns = [b"".join([col.translate(shift[cv]) for cv in mul[v]]) if v else col * gf.q
                   for col, v in zip(columns, row)]
    return columns


def _lines(columns, n: int, s: int) -> bytearray:
    """Point lines from digit columns: byte i of column j*s + d, for the
    flat coordinate of digit d (least significant first) of coordinate j,
    is that digit's character in point i."""
    width, count = n * (s + 1), len(columns[0])
    text = bytearray((b" " * (width - 1) + b"\n") * count)
    for c, col in enumerate(columns):
        j, d = divmod(c, s)
        text[j * (s + 1) + s - 1 - d::width] = col
    return text


def _span_text(gf: GF, rows, n: int, s: int, offset=None):
    """The point lines of x0 + span of the flat `rows`, x0 the flat
    `offset` (zero when None), in `bulk.span_array` order, one block of
    q^L points at a time, L the most low rows whose span fits in _BLOCK,
    as `bulk._span_blocks` enumerates it: block j is x0 plus the low span
    plus word j of the span of the other rows, each column one
    translation of the low columns, which start from x0's digits."""
    k = len(rows)
    low_k = min(k, exponent(gf.q, _BLOCK + 1) - 1)
    low = _span_columns(gf, rows[:low_k], n * s, offset)
    high = _span_columns(gf, rows[low_k:], n * s)
    digits = _add_tables(gf, DIGIT_CHARS.encode())
    for j in range(gf.q ** (k - low_k)):
        yield _lines([col.translate(digits[word[j]]) for col, word in zip(low, high)], n, s)


def _array_text(dist: Distribution):
    """The point lines of an array-backed set, _BLOCK points at a time."""
    import numpy as np

    space = dist.space
    flat = dist.array().reshape(len(dist), space.dim)
    digits = _add_tables(space.gf, DIGIT_CHARS.encode())[0]
    for start in range(0, len(flat), _BLOCK):
        block = np.ascontiguousarray(flat[start:start + _BLOCK].T, dtype=np.uint8)
        yield _lines([col.tobytes().translate(digits) for col in block], space.n, space.s)


def write_point_set(stream, dist: Distribution, comments=()) -> None:
    """Header "q n s N" preceded by the field line when e > 1, then one
    line per point: n digit strings, most significant digit first.  A
    lazy span's or coset's lines come from its generator rows and offset
    by `bytes.translate` (`_span_text`), without numpy; an array's from
    its digit columns."""
    space = dist.space
    if space.q > len(DIGIT_CHARS):
        raise ValueError("text digit format supports q <= 36")
    blocks = (_array_text(dist) if dist._array is not None
              else _span_text(space.gf, dist.generator, space.n, space.s, dist.offset))
    _write(stream, space, len(dist), comments, blocks)


# a line ends at LF, CRLF or a lone CR, as in a file opened in text mode
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# the characters above ASCII at which str.split() also separates tokens
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
# byte -> digit value for both letter cases; 255 marks a bad digit
_DIGITS = bytes(DIGIT_CHARS.find(chr(b).lower()) % 256 for b in range(256))


def _byte_lines(data, offsets: list):
    """(line number, stripped text) of each line of the bytes or text
    `data` that is neither blank nor a comment, whatever bytes a comment
    holds; the offset past each line read is appended to `offsets`."""
    for match in _LINE.finditer(data if isinstance(data, bytes) else data.encode()):
        offsets.append(match.end())
        text = match.group().decode("utf-8", "replace").strip()
        if text and not text.startswith("#"):
            yield len(offsets), text


def _ints(tokens) -> list[int]:
    """Tokens that are ASCII decimal digits as ints, else ValueError: int()
    alone would also read signs, "_" and other scripts' digits."""
    if not all(t.isascii() and t.isdigit() for t in tokens):
        raise ValueError("not a decimal digit string")
    return [int(t) for t in tokens]


def _read_header(lines, kind: str):
    lineno, text = next(lines, (1, None))
    if text is None:
        raise PointFileError("empty file", 1)
    parts, field = text.split(), None
    if len(parts) != 4:
        try:
            _ints(parts)  # the field line's values are digit strings too
            field = GF.from_description(text)
        except FieldBoundError as exc:
            raise PointFileError(str(exc), lineno) from None
        except ValueError:
            raise PointFileError("expected field line or 4-value header", lineno) from None
        lineno, text = next(lines, (lineno, None))
        if text is None:
            raise PointFileError("missing header after field line", lineno)
        parts = text.split()
        if len(parts) != 4:
            raise PointFileError("expected header 'q n s N'", lineno)
    try:
        q, n, s, count = _ints(parts)
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


def _span_rows(data: bytes, start: int, space: Space, count: int):
    """The lazy set x0 + span(B), holding the code its rank check reduced,
    for a body from byte `start` of `data` whose first `count` = q^r lines
    are byte for byte what `write_point_set` writes of it, B independent:
    x0 the flat first point, B the flat rows of the points at q^0, ...,
    q^(r-1) minus x0; else None.  Compared block by block (`_span_text`),
    a body that is no such set stops at its first differing block."""
    from .codes import LinearCode

    q, n, s, gf = space.q, space.n, space.s, space.gf
    r, width = exponent(q, count), n * (s + 1)
    if q > len(DIGIT_CHARS) or q ** r != count or len(data) - start < count * width:
        return None
    points = []
    for i in [0] + [q ** m for m in range(r)]:
        at = start + i * width
        labels = data[at:at + width].translate(_DIGITS)
        points.append([labels[j * (s + 1) + s - 1 - d] for j in range(n) for d in range(s)])
        if max(points[-1]) >= q:
            return None
    offset, *points = points
    rows = [list(map(gf.sub, point, offset)) for point in points]
    code = LinearCode(space, rows)
    if code.k < r:
        return None
    for text in _span_text(gf, rows, n, s, offset):
        if not data.startswith(text, start):
            return None
        start += len(text)
    return Distribution(space, generator=rows, offset=offset)._holding(code)


def read_point_set(stream) -> Distribution:
    """Parse a point file from a binary or text stream; errors are
    `PointFileError`s naming the first offending line, checked in file
    order (coordinate count, then per digit string: length, bad digit,
    digit >= q).  A file whose points spell out x0 + span(B) in
    `bulk.span_array` order, x0 its first point and B its points at
    q^0, ..., q^(r-1) minus x0, as every file `write_point_set` writes of
    a lazy span or coset (`_span_rows`), is read as that lazy set,
    `Distribution(space, generator=B, offset=x0)`, without numpy; any
    other as an array."""
    data = stream.read()
    data = data if isinstance(data, bytes) else data.encode()
    offsets = []
    field, n, s, count, lineno = _read_header(_byte_lines(data, offsets), "point set")
    space, limit = Space(field, n, s), min(field.q, len(DIGIT_CHARS))
    span = _span_rows(data, offsets[-1], space, count)
    if span is not None:
        return span
    import numpy as np

    body = np.frombuffer(memoryview(data)[offsets[-1]:], dtype=np.uint8)
    table = np.frombuffer(_DIGITS, dtype=np.uint8).astype(np.int16)
    # fixed width: n digit strings of s bytes a line, single spaces, and
    # every line ending as the first does, at LF or CRLF
    width = n * (s + 1)
    end = b"\r\n" if body[width - 1:width + 1].tobytes() == b"\r\n" else b"\n"
    line = width - 1 + len(end)
    if count * line <= body.size:
        rows = body[:count * line].reshape(count, line)
        grid = rows[:, :width].reshape(count, n, s + 1)
        if ((grid[:, :-1, s] == ord(" ")).all()
                and (rows[:, width - 1:] == np.frombuffer(end, np.uint8)).all()):
            digits = table[grid[:, :, s - 1::-1]]
            # a byte that is no digit (255) may be a comment: the classifier decides
            if np.max(digits, initial=0) < limit:
                return Distribution(space, array=digits)
    # the classifier: every byte is classed as a space, a line end or a digit
    text = str(body.data, "utf-8", "replace")
    if not text.isascii():
        # one byte a character: wide spaces become spaces and every other
        # non-ASCII character "?", a bad digit
        body = np.frombuffer(_WIDE_SPACE.sub(" ", text).encode("ascii", "replace"), np.uint8)
    # " ", "\t\n\v\f\r" and "\x1c".."\x1f" separate tokens (uint8 subtraction
    # wraps below 0); a token starts and ends where the class changes
    spans = np.flatnonzero(np.diff((body == 32) | (body - 9 <= 4) | (body - 28 <= 3),
                                   prepend=True, append=True)).reshape(-1, 2)
    # a line ends at every LF and every CR that no LF follows; the tokens of
    # line i of the body are [cuts[i], cuts[i + 1])
    breaks = np.flatnonzero((body == 10) | (body == 13) & np.append(body[1:] != 10, True))
    cuts = np.concatenate(([0], np.searchsorted(spans[:, 0], breaks), [len(spans)]))
    sizes = np.diff(cuts)
    lines = np.flatnonzero(sizes)
    lines = lines[body[spans[cuts[lines], 0]] != ord("#")][:count]
    short = np.flatnonzero(sizes[lines] != n)
    points = int(short[0]) if short.size else len(lines)
    # a line of n tokens bounds n, and a token of s bytes bounds s, by the file
    tokens = cuts[lines[:points], None] + np.arange(n if points else 0)
    starts, ends = spans[:, 0][tokens].ravel(), spans[:, 1][tokens].ravel()
    wrong = np.flatnonzero(ends - starts != s)
    good = int(wrong[0]) if wrong.size else len(starts)
    digits = np.empty((good, s), dtype=np.int16)
    for j in range(s if good else 0):
        digits[:, s - 1 - j] = table[body[starts[:good] + j]]
    # the first error in file order, and the index of its point
    if np.max(digits, initial=0) >= limit:
        t = int(np.argmax((digits >= limit).any(axis=1)))
        what = "bad digit" if (digits[t] == 255).any() else "digit out of range"
        message, point = f"{what} in {text[starts[t]:ends[t]]!r}", t // n
    elif good < len(starts):
        message = f"digit string {text[starts[good]:ends[good]]!r} is not {s} long"
        point = good // n
    elif points < len(lines):
        message, point = f"expected {n} coordinates", points
    elif points < count:
        message, point = "fewer points than the header promised", points - 1
    else:
        return Distribution(space, array=digits.reshape(count, n, s))
    raise PointFileError(message, lineno + 1 + int(lines[point]) if point >= 0 else lineno)
