import io
import itertools
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from nrtcodes.codes import rank
from nrtcodes.construct import build_optimum_distribution
from nrtcodes.gf import DIGIT_CHARS, GF
from nrtcodes.peano import merge_distribution
from nrtcodes.words import (_WIDE_SPACE, Distribution, PointFileError, Space,
                            hamming_weight, nrt_weight, read_point_set,
                            row_weight, write_point_set)

from _helpers import (all_words, from_points, linear_combine, min_distance, point_lines_by_word,
                      random_word, read_point_array_by_line, same_multiset, span_array_by_passes,
                      word_to_base_p)


def test_weight_worked_example():
    word = ((1, 1, 0), (0, 0, 1))
    assert nrt_weight(word) == 5
    assert hamming_weight(word) == 3


def test_weight_edges():
    assert nrt_weight(((0, 0), (0, 0))) == 0
    assert nrt_weight(((1, 1), (1, 1), (1, 1))) == 6  # all rows end nonzero
    assert row_weight((0, 1, 0)) == 2


def test_linear_combine():
    sp = Space(GF(2), 1, 2)
    half = sp.point_to_word((Fraction(1, 2),))
    assert half == ((0, 1),)
    assert linear_combine(sp, 1, half, 1, half) == sp.zero()
    x = sp.point_to_word((Fraction(1, 4),))
    assert linear_combine(sp, 1, x, 0, half) == x
    assert sp.sub(x, x) == sp.zero()


def test_inner_product_examples():
    sp = Space(GF(2), 1, 3)
    assert sp.inner(((1, 0, 0),), ((0, 0, 1),)) == 1
    assert sp.inner(((1, 1, 1),), sp.zero()) == 0
    sp3 = Space(GF(3), 1, 2)
    assert sp3.inner(((1, 2),), ((2, 1),)) == 2  # 1*1 + 2*2 = 5 = 2 mod 3
    # symmetry
    rng = random.Random(0)
    sp4 = Space(GF(2, 2), 2, 3)
    for _ in range(30):
        w1, w2 = random_word(sp4, rng), random_word(sp4, rng)
        assert sp4.inner(w1, w2) == sp4.inner(w2, w1)


def test_inner_product_nondegenerate():
    sp = Space(GF(2), 2, 2)
    words = list(all_words(sp))
    for w in words:
        if all(sp.inner(w, other) == 0 for other in words):
            assert w == sp.zero()


def test_metric_axioms_exhaustive_small():
    sp = Space(GF(2), 2, 2)
    words = list(all_words(sp))
    for w in words:
        if w != sp.zero():
            assert nrt_weight(w) > 0
        for a in range(1, 2):
            assert nrt_weight(sp.scale(a, w)) == nrt_weight(w)
        for w2 in words:
            assert nrt_weight(sp.add(w, w2)) <= nrt_weight(w) + nrt_weight(w2)


def test_metric_axioms_randomized():
    rng = random.Random(1)
    for gf in (GF(3), GF(2, 2)):
        sp = Space(gf, 3, 2)
        for _ in range(200):
            w1, w2 = random_word(sp, rng), random_word(sp, rng)
            a = rng.randrange(1, gf.q)
            assert nrt_weight(sp.scale(a, w1)) == nrt_weight(w1)
            assert nrt_weight(sp.add(w1, w2)) <= nrt_weight(w1) + nrt_weight(w2)
            # weight comparison with the Hamming weight
            assert hamming_weight(w1) <= nrt_weight(w1) <= sp.s * hamming_weight(w1)


def test_lower_triangular_invariance():
    # multiplying a row by a nonsingular lower triangular matrix keeps the
    # NRT weight
    rng = random.Random(2)
    for gf in (GF(2), GF(3), GF(2, 2)):
        s = 4
        sp = Space(gf, 1, s)
        for _ in range(100):
            v = [[0] * s for _ in range(s)]
            for i in range(s):
                v[i][i] = rng.randrange(1, gf.q)
                for j in range(i):
                    v[i][j] = rng.randrange(gf.q)
            row = random_word(sp, rng)[0]
            image = tuple(
                # sum_i row[i] * v[i][j]
                _dot(gf, row, [v[i][j] for i in range(s)])
                for j in range(s)
            )
            assert row_weight(image) == row_weight(row)


def _dot(gf, xs, ys):
    out = 0
    for x, y in zip(xs, ys):
        out = gf.add(out, gf.mul(x, y))
    return out


def test_point_value_bounds():
    # q^(w-s-1) <= x < q^(w-s) for nonzero coordinates of weight w
    for q, gf in ((2, GF(2)), (3, GF(3)), (4, GF(2, 2))):
        for s in range(1, 5):
            sp = Space(gf, 1, s)
            for row in itertools.product(range(q), repeat=s):
                x = sp.coordinate(row)
                w = row_weight(row)
                if x == 0:
                    assert w == 0
                    continue
                assert Fraction(q) ** (w - s - 1) <= x < Fraction(q) ** (w - s)


def test_point_word_roundtrip():
    for gf in (GF(2), GF(3, 2)):
        sp = Space(gf, 2, 3)
        rng = random.Random(3)
        for _ in range(50):
            w = random_word(sp, rng)
            assert sp.point_to_word(sp.word_to_point(w)) == w
    sp = Space(GF(2), 1, 2)
    with pytest.raises(ValueError):
        sp.point_to_word((Fraction(1, 3),))


def test_distribution_basics():
    sp = Space(GF(2), 2, 1)
    d = from_points(sp, [(Fraction(0), Fraction(0)),
                         (Fraction(1, 2), Fraction(1, 2))])
    assert len(d) == 2
    assert min_distance(d, "nrt") == 2
    d2 = Distribution(sp, words=list(reversed(d.words())))
    assert same_multiset(d, d2)
    d3 = from_points(sp, [(Fraction(0), Fraction(0))] * 2)
    assert not same_multiset(d, d3)
    assert min_distance(d3, "nrt") == 0
    empty = np.zeros((0, 2, 1), dtype=np.int16)
    assert same_multiset(Distribution(sp, array=empty), Distribution(sp, array=empty))
    assert not same_multiset(d, Distribution(sp, array=empty))


def test_distribution_projection():
    sp = Space(GF(3), 1, 3)
    d = from_points(sp, [(Fraction(m, 27),) for m in (0, 5, 26)])
    proj = d.project(2)
    assert proj.space.s == 2
    # keeping the first two ternary digits of m/27 gives floor(m/3)/9
    assert proj.points() == [(Fraction(m // 3, 9),) for m in (0, 5, 26)]


def test_base_p_expansion():
    sp = Space(GF(2, 2), 1, 2)
    word = ((2, 0),)
    expanded = word_to_base_p(sp, word)
    assert expanded == ((0, 1, 0, 0),)
    # value is preserved under the digit re-expression
    sp_p = sp.base_p_space()
    assert sp.word_to_point(word) == sp_p.word_to_point(expanded)


def test_point_set_file_roundtrip():
    for gf in (GF(3), GF(2, 2)):
        sp = Space(gf, 2, 2)
        rng = random.Random(4)
        d = Distribution(sp, words=[random_word(sp, rng) for _ in range(7)])
        buf = io.StringIO()
        write_point_set(buf, d, comments=["roundtrip"])
        back = read_point_set(io.StringIO(buf.getvalue()))
        assert back.space == sp
        assert back.words() == d.words()


def test_point_set_file_errors():
    with pytest.raises(PointFileError):
        read_point_set(io.StringIO(""))
    with pytest.raises(PointFileError):
        read_point_set(io.StringIO("2 1 2 1\n111\n"))  # wrong digit count
    with pytest.raises(PointFileError):
        read_point_set(io.StringIO("2 1 2 1\n2x\n"))   # bad digit
    with pytest.raises(PointFileError):
        read_point_set(io.StringIO("2 1 2 2\n01\n"))   # too few points
    with pytest.raises(PointFileError):
        read_point_set(io.StringIO("4 1 2 1\n01\n"))   # q=4 needs a field line
    err = None
    try:
        read_point_set(io.StringIO("2 1 2 2\n01\nzz\n"))
    except PointFileError as exc:
        err = exc
    assert err is not None and err.line == 3


def _parse_outcome(parse, data):
    try:
        return parse(io.StringIO(data) if isinstance(data, str) else io.BytesIO(data))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _same_outcome(text):
    """The outcome of `read_point_set` on `text`, as a text stream and as
    its UTF-8 bytes, after checking both against the line parser."""
    old = _parse_outcome(read_point_array_by_line, text)
    for data in (text, text.encode()):
        new = _parse_outcome(lambda fh: read_point_set(fh).array(), data)
        if isinstance(old, np.ndarray):
            assert isinstance(new, np.ndarray) and new.shape == old.shape, text
            assert np.array_equal(new, old), text
        else:
            assert new == old, text
    return new


# characters that are no digit in any base: ASCII, non-ASCII, and
# whitespace that splits a token
_BAD_CHARS = "!.-_+/\u00e9\u0130\u00df\x00\x0c\xa0\u2028"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_vectorized_parse_matches_line_parser(data):
    draw = data.draw
    gf = draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(7), GF(3, 2),
                               GF(5, 2), GF(31)]))
    n, s, count = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sp = Space(gf, n, s)
    dist = Distribution(sp, words=[random_word(sp, rng) for _ in range(count)])
    buf = io.StringIO()
    write_point_set(buf, dist, comments=["generated"])
    lines = buf.getvalue().split("\n")[:-1]
    header = len(lines) - count - 1
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([
            "comment", "blank", "spacing", "upper", "tokens", "length", "bad",
            "range", "header_count", "trailing"]))
        if kind in ("comment", "blank"):
            i = draw(st.integers(0, len(lines)))
            lines.insert(i, draw(st.sampled_from(
                ["#", "# 0 1", "  # x", ""] if kind == "comment" else ["", " ", "\t", " \t "])))
            header += i <= header
            continue
        if kind == "header_count":
            parts = lines[header].split()
            parts[-1] = str(draw(st.sampled_from([0, count + 1, 10 ** 12])))
            lines[header] = " ".join(parts)
            continue
        if kind == "trailing":
            lines.append(draw(st.sampled_from(["junk", "0 0 0 0 0", "# end"])))
            continue
        i = draw(st.integers(header + 1, len(lines) - 1)) if len(lines) > header + 1 else None
        if i is None or not lines[i].strip() or lines[i].lstrip().startswith("#"):
            continue
        line = lines[i]
        tokens = line.split()
        j = draw(st.integers(0, len(tokens) - 1))
        tok = tokens[j]
        pos = draw(st.integers(0, len(tok) - 1))
        if kind == "spacing":
            sep = draw(st.sampled_from(["\t", "  ", " \t", "\x0c"]))
            lines[i] = draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens) + draw(
                st.sampled_from(["", " ", "\t"]))
            continue
        if kind == "upper":
            tok = tok.upper()
        elif kind == "tokens" and draw(st.booleans()):
            tokens.insert(j, tok)
        elif kind == "tokens":
            tokens.pop(j)
        elif kind == "length":
            tok = tok[:pos] + (tok[pos] * 2 if draw(st.booleans()) else "") + tok[pos + 1:]
        elif kind == "bad":
            tok = tok[:pos] + draw(st.sampled_from(_BAD_CHARS)) + tok[pos + 1:]
        elif gf.q < 36:  # range
            tok = tok[:pos] + draw(st.sampled_from(DIGIT_CHARS[gf.q:])) + tok[pos + 1:]
        if kind != "tokens":
            tokens[j] = tok
        lines[i] = " ".join(tokens)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + end for line in lines)
    if draw(st.integers(0, 3)) == 0:
        text = text[:len(text) - draw(st.integers(0, len(text)))]
    _same_outcome(text)


def _written(dist, comments=()):
    """The file `write_point_set` writes of `dist`, after checking it
    against the per-word formatter."""
    buf = io.BytesIO()
    write_point_set(buf, dist, comments=comments)
    space = dist.space
    head = "".join(f"# {c}\n" for c in comments)
    head += space.gf.describe() + "\n" if space.gf.e > 1 else ""
    head += f"{space.q} {space.n} {space.s} {len(dist)}\n"
    assert buf.getvalue() == head.encode() + point_lines_by_word(dist.array())
    return buf.getvalue()


SPAN_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(3, 2)]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_file_is_read_as_its_span_exactly_when_it_spells_the_span_out(data):
    draw = data.draw
    kind = draw(st.sampled_from(["span", "moved", "shift", "shift crlf", "permuted", "crlf",
                                 "upper", "tab", "trailing", "truncated", "dependent"]))
    # 11: an upper-case digit needs a letter
    gf = GF(11) if kind == "upper" else draw(st.sampled_from(SPAN_FIELDS))
    space = Space(gf, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    q, dim = gf.q, space.dim
    k = draw(st.integers(0, max(k for k in range(dim + 1) if q ** k <= 1331)))
    entry = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=k, max_size=k))
    if kind == "dependent" and k:
        # row m is the point at q^m: one row a multiple of another, or zero
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        rows[i] = [gf.mul(draw(entry), v) for v in rows[j]] if i != j else [0] * dim
    text = _written(Distribution(space, generator=rows), comments=["drawn"])
    lines = text.split(b"\n")[:-1]
    body = 2 + (gf.e > 1)  # the comment, the field line and the header first
    arr = span_array_by_passes(gf, rows, dim).reshape(-1, space.n, space.s)
    assert np.array_equal(read_point_set(io.BytesIO(text)).array(), arr)
    if kind == "moved":
        i, c = draw(st.integers(body, len(lines) - 1)), draw(st.integers(0, dim - 1))
        j, d = divmod(c, space.s)
        at = j * (space.s + 1) + d
        digit = DIGIT_CHARS.index(chr(lines[i][at]))
        new = DIGIT_CHARS[gf.add(digit, draw(st.integers(1, q - 1)))]
        lines[i] = lines[i][:at] + new.encode() + lines[i][at + 1:]
    elif kind.startswith("shift"):
        shift = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
        shifted = gf.add_table[arr.reshape(len(arr), dim), shift[None]]
        lines[body:] = point_lines_by_word(shifted.reshape(arr.shape)).split(b"\n")[:-1]
        # the writer spells out the same coset from its rows and offset
        coset = _written(Distribution(space, generator=rows, offset=shift.tolist()),
                         comments=["drawn"])
        assert coset == b"".join(line + b"\n" for line in lines)
    elif kind == "permuted":
        lines[body:] = [lines[body + i] for i in draw(st.permutations(range(len(arr))))]
    elif kind == "upper":
        lettered = [i for i in range(body, len(lines)) if lines[i] != lines[i].upper()]
        i = draw(st.sampled_from(lettered or [body]))
        lines[i] = lines[i].upper()
    elif kind == "tab":
        i = draw(st.integers(body, len(lines) - 1))
        lines[i] = lines[i].replace(b" ", b"\t", 1) if space.n > 1 else b"\t" + lines[i]
    elif kind == "trailing":
        lines += draw(st.lists(st.sampled_from([b"junk", b"", b"# end", lines[-1]]),
                               min_size=1, max_size=2))
    text = b"".join(line + b"\n" for line in lines)
    if kind.endswith("crlf"):
        text = text.replace(b"\n", b"\r\n")
    elif kind == "truncated":
        start = sum(len(line) + 1 for line in lines[:body])
        text = text[:draw(st.integers(start, len(text) - 1))]
    # the oracle, and the files that must be read as a lazy span or coset:
    # x0 + span(B), x0 the first point and B the points at q^m minus x0
    old = _parse_outcome(read_point_array_by_line, text.decode())
    new = _parse_outcome(read_point_set, text)
    if not isinstance(old, np.ndarray):
        assert new == old
        return
    lazy = new._array is None
    assert np.array_equal(new.array(), old)
    count = len(old)
    r = next(r for r in range(count + 1) if q ** r >= count)
    flat = old.reshape(count, dim)
    x0 = flat[0] if count else None
    basis = ([[gf.sub(int(a), int(b)) for a, b in zip(flat[q ** m], x0)] for m in range(r)]
             if q ** r == count else None)
    start = sum(len(line) + 1 for line in lines[:body])
    spelled = (basis is not None and rank(gf, basis) == r and text[start:].startswith(
        point_lines_by_word(gf.add_table[span_array_by_passes(gf, basis, dim), x0[None]]
                            .reshape(old.shape))))
    assert lazy == spelled, kind
    event(f"{kind} {lazy}")
    if lazy:
        assert new.generator == tuple(map(tuple, basis))
        assert new.offset == (tuple(x0.tolist()) if x0.any() else None)
    if kind in ("span", "trailing", "shift"):
        assert spelled == (rank(gf, rows) == k)


def test_sets_and_transforms_write_the_per_word_text():
    # array-backed sets and spans, some of more than one block of points,
    # and the outputs of `peano` and `basechange`
    rng = np.random.default_rng(3)
    for gf, n, s, count in ((GF(3), 2, 2, 1), (GF(2, 2), 4, 2, 20000), (GF(3, 2), 2, 3, 40000),
                            (GF(31), 1, 1, 7)):
        space = Space(gf, n, s)
        dist = Distribution(space, array=rng.integers(0, gf.q, size=(count, n, s)))
        _written(dist, comments=["random"])
        _written(dist.to_base_p())
        if n % 2 == 0:
            _written(merge_distribution(dist, 2))
    span = Distribution(Space(GF(2, 2), 4, 2), generator=[[1, 2, 0, 3, 1, 1, 0, 2]] * 2 + [
        [0, 1, 2, 3, 0, 1, 2, 3], [3, 3, 0, 0, 1, 0, 2, 2], [0, 0, 0, 0, 0, 0, 0, 1]])
    for dist in (span, merge_distribution(span, 2), span.to_base_p()):
        _written(dist)
    read_back = read_point_set(io.BytesIO(_written(merge_distribution(span, 4))))
    assert read_back._array is not None  # two equal rows: not read as a span
    # 3^10 points, 9 blocks of 3^8: read back block by block as the span,
    # and with its last point moved as an array
    big = build_optimum_distribution(Space(GF(3), 2, 5), 10)
    text = _written(big)
    read_back = read_point_set(io.BytesIO(text))
    assert read_back._array is None and read_back.generator == big.generator
    moved = text[:-3] + (b"1" if text[-3:-2] != b"1" else b"2") + text[-2:]
    assert _same_outcome(moved.decode()).shape == (3 ** 10, 2, 5)


def test_parse_errors_keep_message_and_line():
    cases = {
        "2 1 2 1\n111\n": (2, "digit string '111' is not 2 long"),
        "2 1 2 1\n2x\n": (2, "digit out of range in '2x'"),
        "2 1 2 1\n0!\n": (2, "bad digit in '0!'"),
        # no digit character stands for 36 or more, whatever q is
        "257 1 1 1\n!\n": (2, "bad digit in '!'"),
        "2 1 2 2\n01\n": (2, "fewer points than the header promised"),
        "2 1 2 1000000000000\n01\n": (2, "fewer points than the header promised"),
        "2 2 1 2\n\n# c\n0 1\n1\n": (5, "expected 2 coordinates"),
        # the first bad line wins, whatever comes after it
        "3 2 1 3\n0 1\n0 3\n0\n": (3, "digit out of range in '3'"),
        "3 2 1 3\n0 1\n0 11\n0 z\n": (3, "digit string '11' is not 1 long"),
    }
    for text, (line, message) in cases.items():
        with pytest.raises(PointFileError) as exc:
            read_point_set(io.StringIO(text))
        assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"
        _same_outcome(text)
    # trailing lines after the promised points are not read
    assert read_point_set(io.StringIO("2 1 1 1\n1\njunk\n")).words() == [((1,),)]
    assert read_point_set(io.StringIO("2 2 1 0\n")).array().shape == (0, 2, 1)


def test_parse_accepts_only_ascii_digits():
    # str.lower() maps the Kelvin sign to "k", so the line parser took it
    # as digit 20; the byte table reads it as a bad digit
    text = "29 1 1 1\n\u212a\n"
    assert read_point_array_by_line(io.StringIO(text)).tolist() == [[[20]]]
    with pytest.raises(PointFileError) as exc:
        read_point_set(io.StringIO(text))
    assert exc.value.line == 2 and "bad digit" in str(exc.value)
    assert read_point_set(io.StringIO("29 1 1 1\nK\n")).words() == [((20,),)]


def test_binary_reads_keep_the_text_line_and_token_rules():
    # a lone CR ends a line, as in a file opened in text mode
    with pytest.raises(PointFileError) as exc:
        read_point_set(io.BytesIO(b"2 1 2 2\r01\r1z\r"))
    assert exc.value.line == 3 and str(exc.value) == "line 3: digit out of range in '1z'"
    # every space str.split() separates at separates tokens, ASCII or not
    for sep in ("\xa0", "\x85", "\u2028", "\u3000", "\x0b", "\x1f"):
        text = f"2 2 1 1\n0{sep}1\n"
        assert read_point_set(io.BytesIO(text.encode())).words() == [((0,), (1,))]
    # a comment is skipped whatever bytes it holds
    assert read_point_set(io.BytesIO(b"# caf\xe9\n2 1 2 1\n01\n")).words() == [((1, 0),)]
    # a non-ASCII byte in a digit string is a bad digit on its line
    for token in (b"0\xe9", b"\xff1", b"0\x80", "\u00e9\u00e9".encode()):
        with pytest.raises(PointFileError) as exc:
            read_point_set(io.BytesIO(b"2 1 2 2\n01\n" + token + b"\n"))
        expected = repr(token.decode("utf-8", "replace"))
        assert exc.value.line == 3 and str(exc.value) == f"line 3: bad digit in {expected}"


def test_wide_spaces_are_the_ones_str_split_separates_at():
    every = "".join(map(chr, range(128, sys.maxunicode + 1)))
    assert _WIDE_SPACE.findall(every) == [c for c in every if c.isspace()]


def _large_lines():
    """The lines of a fixed-width file of 2^17 random points over GF(4),
    field line first."""
    space = Space(GF(2, 2), 2, 3)
    rng = np.random.default_rng(17)
    dist = Distribution(space, array=rng.integers(0, 4, size=(1 << 17, 2, 3)))
    buf = io.StringIO()
    write_point_set(buf, dist, comments=["large"])
    return buf.getvalue().split("\n")[:-1]


@pytest.mark.parametrize("where, line", [
    ("first", "012 30!"), ("first", "012 301 2"), ("middle", "012\t301"),
    ("middle", "012\t30!"), ("middle", "# 012 301"), ("last", "012 3010"),
    ("last", "012 3x1")])
def test_large_files_match_the_line_parser(where, line):
    lines = _large_lines()
    body = range(3, len(lines))
    lines[{"first": body[0], "middle": body[len(body) // 2], "last": body[-1]}[where]] = line
    _same_outcome("".join(f"{x}\n" for x in lines))


def test_large_crlf_files_match_the_line_parser():
    lines = _large_lines()
    assert _same_outcome("".join(f"{x}\r\n" for x in lines)).shape == (1 << 17, 2, 3)
    lines[-1] = "012 3x1"
    _same_outcome("".join(f"{x}\r\n" for x in lines))


_ENDS = {"LF": "\n", "CRLF": "\r\n"}


@pytest.mark.parametrize("end, other", [("LF", "CRLF"), ("CRLF", "LF")])
def test_a_line_end_that_changes_after_the_first_point_matches_the_line_parser(end, other):
    # the grid takes the first point's line end as every line's: a file
    # that changes it later is read by the classifier, to the same points
    space = Space(GF(3), 2, 2)
    dist = Distribution(space, array=np.random.default_rng(5).integers(0, 3, size=(64, 2, 2)))
    buf = io.StringIO()
    write_point_set(buf, dist)
    head, first, *rest = buf.getvalue().split("\n")[:-1]
    text = f"{head}\n{first}{_ENDS[end]}" + "".join(f"{x}{_ENDS[other]}" for x in rest)
    assert np.array_equal(_same_outcome(text), dist.array())


@pytest.mark.parametrize("end", sorted(_ENDS))
def test_fixed_width_read_peaks_below_four_times_the_file(tmp_path, end):
    # a CRLF file, like an LF one, is read from its byte grid
    space = Space(GF(2, 4), 5, 3)
    rng = np.random.default_rng(16)
    dist = Distribution(space, array=rng.integers(0, 16, size=(1 << 16, 5, 3)))
    path = tmp_path / "large.points"
    buf = io.BytesIO()
    write_point_set(buf, dist)
    path.write_bytes(buf.getvalue().replace(b"\n", _ENDS[end].encode()))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            back = read_point_set(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.array(), dist.array())
    assert peak < 4 * path.stat().st_size


@pytest.mark.parametrize("text, message", (
    (b"2 2000000 1 1\n0 1\n", "line 2: expected 2000000 coordinates"),
    (b"2 1 1000000000 1\n0\n", "line 2: digit string '0' is not 1000000000 long"),
))
def test_header_sizes_cost_nothing_the_file_does_not_hold(text, message):
    read_point_set(io.BytesIO(b"2 1 1 1\n0\n"))  # the reader's one-time setup
    tracemalloc.start()
    try:
        with pytest.raises(PointFileError) as exc:
            read_point_set(io.BytesIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1 << 20


def test_base_p_expansion_peaks_near_its_output():
    from nrtcodes.construct import build_optimum_distribution

    dist = build_optimum_distribution(Space(GF(2, 2), 4, 4), 7)
    dist.array()
    tracemalloc.start()
    try:
        reduced = dist.to_base_p()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced.array().shape == (4 ** 7, 4, 8)
    assert reduced.words() == [word_to_base_p(dist.space, w) for w in dist.words()]
    assert peak < 1.3 * reduced.array().nbytes


def test_space_mismatch():
    sp = Space(GF(2), 1, 2)
    with pytest.raises(ValueError):
        sp.check_word(((1, 1, 1),))
    with pytest.raises(ValueError):
        sp.check_word(((1, 2),))
