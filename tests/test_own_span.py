"""`codes.own_span`, the one proof that a point set is its own span,
against the oracle "N = q^rank = the number of distinct rows", and the
commands that decide a span from its rows: `spectrum` and `verify`."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nrtcodes import bulk, codes, geometry
from nrtcodes.cli import main
from nrtcodes.codes import LinearCode, own_span
from nrtcodes.construct import build_optimum_distribution
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space


def is_own_span(space, rows):
    """The points lie in their span, of q^rank words: they are it, each
    once, iff there are q^rank of them and all are distinct."""
    rank = len(LinearCode(space, rows.tolist()).basis)
    return len(rows) == space.q ** rank == len(np.unique(rows, axis=0))


def check(space, rows):
    dist = Distribution(space, array=rows.reshape(len(rows), space.n, space.s))
    got = own_span(dist)
    assert (got is not None) == is_own_span(space, rows)
    if got is not None:
        # the file's array, in its order, with the RREF basis of its span
        assert got.array() is dist.array() and len(got) == len(dist)
        assert got.generator == LinearCode(space, rows.tolist()).basis
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

    def refuse(*args):
        raise AssertionError("_box_report reached")

    monkeypatch.setattr(geometry, "_box_report", refuse)
    assert main(["spectrum", "--in", f"{prefix}.points"]) == 0
    out = capsys.readouterr().out
    assert "formula matches: True" in out
    assert main(["verify", "--kind", "optimum", "--in", f"{prefix}.points"]) == 0
    assert capsys.readouterr().out == "optimum: True\n"
    # a net's yes is the rank walk's, on the file and on its merged copy
    assert main(["verify", "--kind", "net", "--delta", "2", "--in", f"{prefix}.points"]) == 0
    assert capsys.readouterr().out == "net: True\n"
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
