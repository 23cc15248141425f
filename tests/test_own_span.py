"""`codes.own_span`, the one proof that a point set is its own span or a
coset of one, against the oracle "N = q^rank = the number of distinct
rows" of the points minus the first, and the commands that decide a span
or a coset from its rows: `spectrum` and `verify`."""

import contextlib
import io
import json

import numpy as np
from hypothesis import event, given, settings, strategies as st

from nrtcodes import bulk, codes
from nrtcodes.cli import main
from nrtcodes.codes import LinearCode, own_span
from nrtcodes.construct import build_optimum_distribution
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, nrt_weight

from _helpers import bounded_compositions, family_report, point_lines_by_word, span_array_by_passes


def is_own_span(space, rows):
    """The points lie in their span, of q^rank words: they are it, each
    once, iff there are q^rank of them and all are distinct."""
    rank = len(LinearCode(space, rows.tolist()).basis)
    return len(rows) == space.q ** rank == len(np.unique(rows, axis=0))


def check(space, rows):
    """`own_span` against the oracle: the points are a coset x0 + C, each
    once, iff the points minus x0, x0 the first point, are their own
    span C."""
    dist = Distribution(space, array=rows.reshape(len(rows), space.n, space.s))
    got = own_span(dist)
    gf = space.gf
    moved = gf.add_table[rows, gf.neg_table[rows[0]][None]] if len(rows) else rows
    assert (got is not None) == is_own_span(space, moved)
    if got is not None:
        # the file's array, in its order, with the RREF basis of its span
        # and its first point as offset
        assert got.array() is dist.array() and len(got) == len(dist)
        assert got.generator == LinearCode(space, moved.tolist()).basis
        assert got.offset == (tuple(rows[0].tolist()) if rows[0].any() else None)
    return got


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_own_span_agrees_with_the_distinct_rows_oracle(data):
    gf = data.draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5)]))
    space = Space(gf, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)))
    word = st.lists(st.integers(0, gf.q - 1), min_size=space.dim, max_size=space.dim)
    words = lambda size: np.array(data.draw(st.lists(word, min_size=size, max_size=size)),
                                  dtype=np.int16).reshape(size, space.dim)
    code = LinearCode(space, data.draw(st.lists(word, max_size=4)))
    span = code.words_array()
    kind = data.draw(st.sampled_from(
        ["span", "coset", "moved", "moved off the pivots", "duplicated", "multiset",
         "extra rows", "beyond q^(ns)", "single"]))
    rows = span
    if kind == "coset":
        rows = gf.add_table[span, words(1)[0]]
    elif kind == "moved":
        rows = span.copy()
        rows[data.draw(st.integers(0, len(rows) - 1))] = words(1)[0]
    elif kind == "moved off the pivots" and code.k < space.dim:
        # a point moved in a non-pivot column keeps its key
        pivots = [row.index(1) for row in code.basis]
        col = data.draw(st.sampled_from([c for c in range(space.dim) if c not in pivots]))
        rows = span.copy()
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i, col] = gf.add(int(rows[i, col]), data.draw(st.integers(1, gf.q - 1)))
    elif kind == "duplicated" and len(span) > 1:
        rows = span.copy()
        i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                  max_size=2, unique=True))
        rows[i] = rows[j]
    elif kind == "multiset":
        rows = words(data.draw(st.sampled_from([1, gf.q, gf.q ** 2])
                               | st.integers(0, 2 * gf.q)))
    elif kind == "extra rows":  # mostly N not a power of q
        rows = np.concatenate([span, span[:data.draw(st.integers(1, len(span)))]])
    elif kind == "beyond q^(ns)":
        if gf.q ** space.dim > 1024:
            return
        whole = LinearCode.whole_space(space).words_array()
        rows = np.concatenate([whole] * gf.q)
    elif kind == "single":
        rows = words(1) * data.draw(st.integers(0, 1))
    rows = rows[data.draw(st.permutations(range(len(rows))))]
    check(space, np.ascontiguousarray(rows, dtype=np.int16))


def test_own_span_in_orders_that_defeat_a_prefix(monkeypatch):
    """One pass in span order, reversed, and with the rows of a subspace
    of rank r - 2 first, reversed: in these orders no prefix of 4r + 16
    rows spans the set, while the strided sample does."""
    calls = []
    span_array = bulk.span_array

    def counted(*args):
        calls.append(1)
        return span_array(*args)

    monkeypatch.setattr(bulk, "span_array", counted)
    for space, k in ((Space(GF(2), 3, 4), 8), (Space(GF(3), 4, 2), 6),
                     (Space(GF(2, 2), 4, 2), 5)):
        built = build_optimum_distribution(space, k)
        basis = LinearCode(space, built.generator).basis
        rows = np.asarray(span_array(space.gf, built.generator, space.dim))
        in_sub = np.arange(len(rows)) < space.q ** (k - 2)  # span order
        assert 4 * k + 16 <= in_sub.sum()
        orders = (rows, rows[::-1],
                  np.concatenate([rows[in_sub][::-1], rows[~in_sub][::-1]]))
        for arr in orders:
            calls.clear()
            assert check(space, arr) is not None
            assert len(calls) == 1
            # a point moved in every digit, and one moved in a non-pivot
            # column only, which keeps its key
            free = max(set(range(space.dim)) - {row.index(1) for row in basis})
            for cols in (slice(None), free):
                moved = arr.copy()
                moved[len(arr) // 2, cols] = space.gf.add_table[moved[len(arr) // 2, cols], 1]
                calls.clear()
                assert check(space, moved) is None
                assert len(calls) <= 2


def test_built_sets_are_proven_with_one_elimination(monkeypatch):
    """A built set read back as an array, in the colex order `generate`
    writes, holds its generator rows at indices q^0, ..., q^(k-1), so the
    first sample spans it.  The stride alone, 3 mod 5^6, reaches only the
    low rows of a q = 5 set of at most 5^6 points."""
    calls = []
    rref = codes.rref

    def counted(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(codes, "rref", counted)
    fields = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7), 8: GF(2, 3),
              9: GF(3, 2), 16: GF(2, 4)}
    for q, gf in fields.items():
        for n in range(1, min(4, q + 1) + 1):
            for s in range(1, 5):
                space = Space(gf, n, s)
                for k in range(1, n * s + 1):
                    if q ** k > 1 << 16:
                        break
                    built = build_optimum_distribution(space, k)
                    calls.clear()
                    got = own_span(Distribution(space, array=built.array()))
                    assert got is not None and len(calls) == 1, (q, n, s, k)


def test_generated_files_never_count_boxes(tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "g")
    assert main(["generate", "--q", "4", "--n", "4", "--s", "2", "--k", "4",
                 "--out", prefix]) == 0
    capsys.readouterr()
    # a digital shift, and its CRLF copy: GF(4) adds labels as bit strings,
    # so 1 is added to the leading digit of every first coordinate
    lines = (tmp_path / "g.points").read_text().split("\n")
    first = lines.index("4 4 2 256") + 1
    shifted = lines[:first] + [str(int(x[0]) ^ 1) + x[1:] if x else x for x in lines[first:]]
    (tmp_path / "shift.points").write_text("\n".join(shifted))
    (tmp_path / "shift-crlf.points").write_text("\r\n".join(shifted))

    def refuse(*args):
        raise AssertionError("the box keys were built")

    # the key walk of `geometry._box_report` starts from the digit array
    monkeypatch.setattr(Distribution, "eta_array", refuse)
    for path in (f"{prefix}.points", tmp_path / "shift.points", tmp_path / "shift-crlf.points"):
        assert main(["spectrum", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "formula matches: True" in out
        assert main(["verify", "--kind", "optimum", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "optimum: True\n"
        # a net's yes is the rank walk's, on the file and on its merged copy
        assert main(["verify", "--kind", "net", "--delta", "2", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "net: True\n"
        # and so is a "no", witness included: t = 4 > s = 2, so the top two
        # digits of the first coordinate, of rank 2, hold 4^(4 - 2) points
        assert main(["verify", "--kind", "net", "--delta", "0", "--in", str(path)]) == 1
        assert capsys.readouterr().out == (
            "net: False\nfirst failing box: sides (4, 0, 0, 0) positions (0, 0, 0, 0) "
            "holds 16, expected 1\n")
    assert main(["peano", "--type", "points", "--g", "2", "--in", f"{prefix}.points",
                 "--out", f"{prefix}-merged.points"]) == 0
    capsys.readouterr()
    for kind in ("optimum", "net"):
        assert main(["verify", "--kind", kind, "--delta", "0",
                     "--in", f"{prefix}-merged.points"]) == 0
        assert capsys.readouterr().out == f"{kind}: True\n"


def test_a_moved_copy_keeps_its_witness(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    assert main(["generate", "--q", "4", "--n", "4", "--s", "2", "--k", "4",
                 "--out", prefix]) == 0
    capsys.readouterr()
    lines = (tmp_path / "g.points").read_text().split("\n")
    header = lines.index("4 4 2 256")
    point = lines[header + 10].split()  # the tenth point, one digit moved
    point[0] = ("1" if point[0][0] != "1" else "2") + point[0][1:]
    lines[header + 10] = " ".join(point)
    moved = tmp_path / "moved.points"
    moved.write_text("\n".join(lines))
    assert main(["verify", "--kind", "optimum", "--in", str(moved)]) == 1
    assert capsys.readouterr().out == (
        "optimum: False\n"
        "first failing box: sides (2, 2, 0, 0) positions (6, 14, 0, 0) "
        "holds 0, expected 1\n")


def _run(argv):
    """`main`'s status and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_cosets_answer_as_their_points_do(tmp_path_factory, data):
    """A coset x0 + span(B), in span order, with CRLF line ends, permuted,
    or with one point moved: `verify --kind optimum`, `verify --kind net`
    at every deficiency and `spectrum --format json` agree with the box
    counts of `family_report`, witness included, and with the NRT weight
    histogram from the first point (from zero where zero is a point)."""
    draw = data.draw
    gf = draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5)]))
    space = Space(gf, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    q, n, s, dim = gf.q, space.n, space.s, space.dim
    k = draw(st.integers(0, max(k for k in range(dim + 1) if q ** k <= 625)))
    word = st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)
    if n <= q + 1 and k and draw(st.booleans()):
        rows = build_optimum_distribution(space, k).generator
    else:
        rows = draw(st.lists(word, min_size=k, max_size=k))
    offset = np.array(draw(word))
    arr = gf.add_table[span_array_by_passes(gf, rows, dim), offset[None]]
    kind = draw(st.sampled_from(["span order", "crlf", "permuted", "moved"]))
    if kind == "permuted":
        arr = arr[draw(st.permutations(range(len(arr))))]
    elif kind == "moved":
        i, c = draw(st.integers(0, len(arr) - 1)), draw(st.integers(0, dim - 1))
        arr[i, c] = gf.add(int(arr[i, c]), draw(st.integers(1, q - 1)))
    arr = arr.reshape(len(arr), n, s)
    head = (gf.describe() + "\n" if gf.e > 1 else "") + f"{q} {n} {s} {len(arr)}\n"
    text = head.encode() + point_lines_by_word(arr)
    path = tmp_path_factory.getbasetemp() / "coset.points"
    path.write_bytes(text.replace(b"\n", b"\r\n") if kind == "crlf" else text)
    dist = Distribution(space, array=arr)

    def expect(name, report):
        if report.ok:
            return 0, f"{name}: True\n"
        return 1, (f"{name}: False\nfirst failing box: sides {report.box.a} positions "
                   f"{report.box.m} holds {report.count}, expected {report.expected}\n")

    optimum = family_report(dist, [(a, 1) for a in bounded_compositions(k, n, s)])
    assert _run(["verify", "--kind", "optimum", "--in", str(path)]) == expect("optimum", optimum)
    for delta in range(k + 1):
        t = k - delta  # sides above s read zero digits
        net = family_report(dist, [(a, q ** delta) for a in bounded_compositions(t, n, t)])
        assert _run(["verify", "--kind", "net", "--delta", str(delta), "--in", str(path)]) == (
            expect("net", net))
    flat = arr.reshape(len(arr), dim)
    anchor = arr[0] if flat.any(axis=1).all() else np.zeros_like(arr[0])
    hist = [0] * (dim + 1)
    for point in arr:
        hist[nrt_weight(gf.add_table[point, gf.neg_table[anchor]].tolist())] += 1
    status, out = _run(["spectrum", "--format", "json", "--in", str(path)])
    payload = json.loads(out)
    assert status == 0 and payload["w"] == hist
    assert payload["anchor"] == anchor.tolist()
    assert ("formula" in payload) == optimum.ok
    linear = is_own_span(space, flat)
    assert ("weight_enumerator" in payload) == ("box_enumerator" in payload) == linear
    if kind != "moved" and LinearCode(space, rows).k == k:
        # a coset of q^k points, each once, is linear iff it holds zero
        assert linear == (not flat.any(axis=1).all())
    event(f"{kind} linear={linear} optimum={optimum.ok}")
