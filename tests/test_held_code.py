"""One reduced code per set with a generator: `Distribution.code()` is
reduced once and held, its `LinearCode._ranks` table is walked once and
held, and every certificate, count and witness of a command reads them.
The calls of `codes.rref` and `codes._profile_ranks` are counted per
command, keyed by the content of their rows: each code a command walks,
the dual counted as its own, is reduced once and its ranks walked at most
once."""

import contextlib
import io
from collections import Counter

import pytest

from nrtcodes import codes, geometry
from nrtcodes.cli import main
from nrtcodes.codes import LinearCode, own_span
from nrtcodes.construct import build_optimum_distribution
from nrtcodes.gf import GF
from nrtcodes.peano import build_composite, merge_distribution
from nrtcodes.words import Distribution, Space, read_point_set, write_point_set


@pytest.fixture
def calls(monkeypatch):
    """Counter of (function, space or field, rows) for every `rref` and
    `_profile_ranks` call, keyed by the content of the rows."""
    counts = Counter()

    def counted(name, fn):
        def call(where, rows):
            rows = [tuple(r) for r in rows]
            counts[name, where, tuple(rows)] += 1
            return fn(where, rows)
        return call

    monkeypatch.setattr(codes, "rref", counted("rref", codes.rref))
    monkeypatch.setattr(codes, "_profile_ranks", counted("ranks", codes._profile_ranks))
    return counts


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The generated (5,4,3,6) and (4,1,3,2) files, and a shift of the first."""
    tmp = tmp_path_factory.mktemp("held")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in ("--q 5 --n 4 --s 3 --k 6 --out", "--q 4 --n 1 --s 3 --k 2 --out"):
            prefix = "span" if "--n 4" in argv else "n1"
            assert main(["generate", *argv.split(), str(tmp / prefix)]) == 0
    with open(tmp / "span.points", "rb") as fh:
        span = read_point_set(fh)
    with open(tmp / "shift.points", "wb") as fh:
        write_point_set(fh, Distribution(span.space, generator=span.generator,
                                         offset=[1] + [0] * (span.space.dim - 1)))
    return tmp


# command, file -> (codes reduced, rank tables walked): the code of the
# file's rows, and at n = 1 also its dual
TABLE = [
    ("verify --kind optimum", "span", 1, 0),
    ("verify --kind optimum", "shift", 1, 0),
    ("verify --kind net --delta 0", "span", 1, 0),
    ("verify --kind net --delta 0", "shift", 1, 0),
    ("spectrum", "span", 1, 1),
    ("spectrum", "shift", 1, 1),
    ("spectrum", "n1", 2, 2),
    # the two rows below are unchanged: a code file is reduced as it is read
    ("verify --kind mds", "span.code", 1, 0),
    ("dual", "span.code", 2, 0),
]


@pytest.mark.parametrize("command, name, reduced, walked", TABLE,
                         ids=[f"{c}-{n}".replace(" ", "") for c, n, _, _ in TABLE])
def test_a_command_reduces_each_code_once(files, calls, command, name, reduced, walked):
    path = files / (name if "." in name else f"{name}.points")
    with contextlib.redirect_stdout(io.StringIO()):
        main([*command.split(), "--in", str(path)])
    assert set(calls.values()) <= {1}, calls
    assert sum(key[0] == "rref" for key in calls) == reduced
    assert sum(key[0] == "ranks" for key in calls) == walked


@pytest.mark.parametrize("argv, reduced", [
    ("--q 5 --n 4 --s 3 --k 6", 1),
    # the tall code, held on through the merge, and its dual
    ("--q 8 --n 3 --s 2 --g 2 --t 1", 2)])
def test_generate_reduces_each_code_once(tmp_path, calls, argv, reduced):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", *argv.split(), "--out", str(tmp_path / "g")]) == 0
    assert set(calls.values()) == {1}
    assert sum(key[0] == "rref" for key in calls) == reduced
    assert not any(key[0] == "ranks" for key in calls)


def test_check_counts_reduces_the_rows_once(calls):
    # 66 totals, one walk each, over one held code of 65 rows
    space = Space(GF(2), 1, 70)
    top = Distribution(space, generator=[[int(c == 69 - r) for c in range(70)]
                                         for r in range(65)])
    assert geometry.check_counts(top, 65).ok
    assert list(calls.values()) == [1] and next(iter(calls))[0] == "rref"


def test_reduced_rows_are_handed_on():
    space = Space(GF(3), 4, 2)
    dist = build_optimum_distribution(space, 3)
    code = dist.code()
    assert dist.code() is code and code == LinearCode(space, dist.generator)
    # the RREF of flat rows does not depend on (n, s)
    merged = merge_distribution(dist, 2)
    assert merged._code is not None and merged.code() == LinearCode(merged.space, dist.generator)
    assert merged.code()._ranks == codes._profile_ranks(merged.space, merged.code().basis)
    assert code.distribution().code() is code
    build = build_composite(GF(5), 2, 2, 1, 1)
    assert build.code is build.dist.code()
    # a proven array gets the basis it was proven by
    proven = own_span(Distribution(space, array=dist.array()[::-1]))
    assert proven._code is not None and proven.code().basis == proven.generator
    assert Distribution(space, array=dist.array()).code() is None
