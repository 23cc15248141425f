import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nrtcodes
from nrtcodes.cli import main
from nrtcodes.codes import LinearCode, corner_box_counts, weight_enumerator
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, write_point_set


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_verify_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, _ = run(["generate", "--q", "3", "--n", "2", "--s", "2",
                        "--k", "2", "--out", prefix], capsys)
    assert code == 0
    assert "MDS verified: True" in out
    assert "optimum verified: True" in out
    code, out, _ = run(["verify", "--kind", "optimum", "--in",
                        f"{prefix}.points", "--k", "2"], capsys)
    assert code == 0 and "True" in out
    code, out, _ = run(["verify", "--kind", "net", "--in", f"{prefix}.points",
                        "--delta", "0"], capsys)
    assert code == 0
    code, out, _ = run(["verify", "--kind", "mds", "--in", f"{prefix}.code"],
                       capsys)
    assert code == 0


def test_generate_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    run(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "3",
         "--out", a], capsys)
    run(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "3",
         "--out", b], capsys)
    for ext in (".points", ".code"):
        with open(a + ext, "rb") as fa, open(b + ext, "rb") as fb:
            assert fa.read() == fb.read()


def test_existence_gate(capsys):
    code, _, err = run(["generate", "--q", "2", "--n", "4", "--s", "1",
                        "--k", "1"], capsys)
    assert code == 2
    assert "q = 2 < n - 1" in err


def test_verify_detects_corruption(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    run(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "2",
         "--out", prefix], capsys)
    with open(f"{prefix}.points") as fh:
        lines = fh.read().splitlines()
    # flip one digit of one point
    for i, line in enumerate(lines):
        if line and not line.startswith("#") and " " in line and len(line.split()[0]) == 2:
            if not line[0].isalpha() and i > 1:
                tok = line.split()
                digit = "1" if tok[0][0] != "1" else "2"
                tok[0] = digit + tok[0][1:]
                lines[i] = " ".join(tok)
                break
    with open(f"{prefix}.points", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code, out, _ = run(["verify", "--kind", "optimum", "--in",
                        f"{prefix}.points", "--k", "2"], capsys)
    assert code == 1
    assert "first failing box" in out


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.points"
    bad.write_text("")
    code, _, err = run(["verify", "--kind", "optimum", "--in", str(bad)],
                       capsys)
    assert code == 2 and "line 1" in err
    bad.write_text("2 1 2 1\nxyz\n")
    code, _, err = run(["verify", "--kind", "optimum", "--in", str(bad)],
                       capsys)
    assert code == 2 and "line 2" in err


def test_header_above_the_field_bound(tmp_path, capsys):
    pts, code_file = tmp_path / "big.points", tmp_path / "big.code"
    for q in (1031, 65537):
        pts.write_text(f"{q} 1 1 1\n0\n")
        code_file.write_text(f"{q} 1 1 1\n1\n")
        for args in (["verify", "--kind", "optimum", "--in", str(pts)],
                     ["dual", "--in", str(code_file)]):
            code, out, err = run(args, capsys)
            assert code == 2 and out == ""
            assert err == f"error: line 1: q = {q} exceeds the field bound 1024\n"
    pts.write_text("1024 1 1 1\n0\n")
    code, _, err = run(["verify", "--kind", "optimum", "--in", str(pts)], capsys)
    assert code == 2 and "q = 1024 is not prime" in err
    # the same message when a field line describes the field
    field = "2 11 1 0 1 0 0 0 0 0 0 0 0 1\n"
    pts.write_text(field + "2048 1 1 1\n0\n")
    code_file.write_text(field + "2048 1 1 1\n1\n")
    for args in (["verify", "--kind", "optimum", "--in", str(pts)],
                 ["dual", "--in", str(code_file)]):
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert err == "error: line 1: q = 2048 exceeds the field bound 1024\n"
    # while malformed field lines keep the syntax message
    for line in ("2 x 1 1 1\n", "4 2 1 1 1\n", "2 2 1 1 0\n", "2 1\n"):
        pts.write_text(line + "4 1 1 1\n0\n")
        code, out, err = run(["verify", "--kind", "optimum", "--in", str(pts)], capsys)
        assert code == 2
        assert err == "error: line 1: expected field line or 4-value header\n", line


def test_empty_point_set_is_refused(tmp_path, capsys):
    pts = tmp_path / "empty.points"
    pts.write_text("2 2 1 0\n")
    for command in ("spectrum", "basechange"):
        code, out, err = run([command, "--in", str(pts)], capsys)
        assert code == 2 and out == ""
        assert err == "error: point set is empty\n"


def test_spectrum_report(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    run(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "2",
         "--out", prefix], capsys)
    code, out, _ = run(["spectrum", "--in", f"{prefix}.points",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["w"] == [1, 0, 0, 4, 4]
    assert payload["formula_matches"] is True


def test_spectrum_macwilliams_flag(tmp_path, capsys):
    prefix = str(tmp_path / "one")
    run(["generate", "--q", "2", "--n", "1", "--s", "3", "--k", "2",
         "--out", prefix], capsys)
    code, out, _ = run(["spectrum", "--in", f"{prefix}.points",
                        "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["macwilliams_n1"] is True


def test_discrepancy_output(tmp_path, capsys):
    pts = tmp_path / "two.points"
    pts.write_text("2 1 1 2\n0\n1\n")
    code, out, _ = run(["discrepancy", "--in", str(pts)], capsys)
    assert code == 0
    assert out.strip() == "1/2"


def test_dual_command(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    run(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "1",
         "--out", prefix], capsys)
    out_file = str(tmp_path / "dual.code")
    code, out, _ = run(["dual", "--in", f"{prefix}.code", "--out", out_file],
                       capsys)
    assert code == 0
    code, out, _ = run(["verify", "--kind", "mds", "--in", out_file], capsys)
    assert code == 0


def test_peano_command(tmp_path, capsys):
    prefix = str(tmp_path / "tall")
    run(["generate", "--q", "3", "--n", "4", "--s", "1", "--k", "2",
         "--out", prefix], capsys)
    merged = str(tmp_path / "merged.code")
    code, out, _ = run(["peano", "--in", f"{prefix}.code", "--g", "2",
                        "--type", "code", "--out", merged], capsys)
    assert code == 0
    code, out, _ = run(["verify", "--kind", "mds", "--in", merged], capsys)
    assert code == 0  # merged optimum stays MDS for k = s*t


def test_basechange_command(tmp_path, capsys):
    prefix = str(tmp_path / "f4")
    run(["generate", "--p", "2", "--e", "2", "--n", "2", "--s", "1",
         "--k", "1", "--out", prefix], capsys)
    out_pts = str(tmp_path / "base2.points")
    code, out, _ = run(["basechange", "--in", f"{prefix}.points",
                        "--out", out_pts], capsys)
    assert code == 0
    assert "bounds hold: True" in out
    code, out, _ = run(["verify", "--kind", "net", "--in", out_pts,
                        "--delta", "1"], capsys)
    assert code == 0


def test_generate_composite(tmp_path, capsys):
    prefix = str(tmp_path / "comp")
    code, out, _ = run(["generate", "--q", "3", "--n", "2", "--s", "1",
                        "--g", "2", "--t", "1", "--out", prefix,
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["weight_relations_ok"] is True
    assert payload["weights"] == {"nrt": 3, "hamming": 3,
                                  "dual_nrt": 3, "dual_hamming": 3}
    code, _, _ = run(["verify", "--kind", "mds", "--in", f"{prefix}.code"],
                     capsys)
    assert code == 0
    code, _, _ = run(["verify", "--kind", "optimum", "--in",
                      f"{prefix}.points", "--k", "2"], capsys)
    assert code == 0
    # not enough nodes for the tall construction
    code, _, err = run(["generate", "--q", "2", "--n", "2", "--s", "1",
                        "--g", "2", "--t", "1"], capsys)
    assert code == 2 and "g*n - 1" in err


def test_field_info(capsys):
    code, out, _ = run(["field-info", "--q", "4"], capsys)
    assert code == 0
    assert "q = 4 = 2^2" in out
    code, out, _ = run(["field-info", "--q", "6"], capsys)
    assert code == 2
    for q in ("2048", "1000003"):
        code, out, err = run(["field-info", "--q", q], capsys)
        assert code == 2 and err == f"error: q = {q} exceeds the field bound 1024\n"


def test_nodes_override(tmp_path, capsys):
    prefix = str(tmp_path / "inf")
    code, out, _ = run(["generate", "--q", "2", "--n", "3", "--s", "1",
                        "--k", "1", "--nodes", "0,1,inf", "--out", prefix],
                       capsys)
    assert code == 0
    with open(f"{prefix}.points") as fh:
        assert "nodes 0,1,inf" in fh.read()


def test_spectrum_enumerators_only_for_linear_sets(tmp_path, capsys):
    # four points whose span also has four words, but not the same ones
    pts = tmp_path / "multi.points"
    pts.write_text("2 2 1 4\n0 0\n0 0\n0 1\n1 0\n")
    code, out, _ = run(["spectrum", "--in", str(pts), "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["w"] == [2, 2, 0]
    assert "weight_enumerator" not in payload and "box_enumerator" not in payload
    prefix = str(tmp_path / "lin")
    run(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "2",
         "--out", prefix], capsys)
    code, out, _ = run(["spectrum", "--in", f"{prefix}.points",
                        "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["weight_enumerator"] == payload["w"] == [1, 0, 0, 4, 4]
    assert payload["box_enumerator"]["0,0"] == 9
    assert payload["box_enumerator"]["2,2"] == 1


def test_generate_refuses_oversize_before_allocating(tmp_path, capsys, monkeypatch):
    from nrtcodes import bulk

    def no_enumeration(*args):
        raise AssertionError("the span was enumerated")

    monkeypatch.setattr(bulk, "span_array", no_enumeration)
    prefix = str(tmp_path / "big")
    code, out, err = run(["generate", "--q", "2", "--n", "1", "--s", "30",
                          "--k", "30", "--out", prefix], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_file(tmp_path, capsys):
    # q = 37 has no single-character digits, so the point file cannot be written
    code, _, err = run(["generate", "--q", "37", "--n", "2", "--s", "1",
                        "--k", "1", "--out", str(tmp_path / "g37")], capsys)
    assert code == 2 and "q <= 36" in err
    assert list(tmp_path.iterdir()) == []
    # an existing file is only replaced by a complete one
    old = tmp_path / "g37.points"
    old.write_text("old\n")
    code, _, _ = run(["generate", "--q", "37", "--n", "2", "--s", "1",
                      "--k", "1", "--out", str(tmp_path / "g37")], capsys)
    assert code == 2 and old.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [old]


def test_degree_and_block_size_below_one_are_usage_errors(tmp_path, capsys):
    code_file = tmp_path / "c.code"
    code_file.write_text("2 2 1 1\n1 0\n")
    for args in (["field-info", "--p", "2", "--e", "0"],
                 ["peano", "--g", "0", "--in", str(code_file)],
                 ["generate", "--q", "5", "--n", "2", "--s", "1", "--g", "0",
                  "--t", "1", "--k", "1", "--out", str(tmp_path / "g")]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("g*"))


def test_field_info_builds_no_tables():
    # a command that needs no arithmetic starts without numpy
    script = ("import sys\n"
              "from nrtcodes import cli, gf\n"
              "def refuse(*field):\n"
              "    raise AssertionError('field tables built')\n"
              "gf._field_tables = refuse\n"
              "assert cli.main(['field-info', '--q', '16']) == 0\n"
              "assert 'numpy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(nrtcodes.__file__))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert "q = 16 = 2^4" in result.stdout


def test_removed_flags_are_usage_errors(capsys):
    for flag in ("--seed", "--threads"):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--q", "3", "--n", "2", "--s", "2", "--k", "2",
                  flag, "1"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_spectrum_of_one_point(tmp_path, capsys):
    # one point is an optimum distribution with k = 0
    pts = tmp_path / "one.points"
    pts.write_text("2 1 2 1\n01\n")
    code, out, _ = run(["spectrum", "--in", str(pts), "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["w"] == payload["formula"] == [1, 0, 0]
    assert payload["formula_matches"] is True
    assert "weight_enumerator" not in payload  # {01} is not linear
    pts.write_text("2 1 2 1\n00\n")
    code, out, _ = run(["spectrum", "--in", str(pts), "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["weight_enumerator"] == [1, 0, 0]
    assert payload["box_enumerator"] == {"0": 1, "1": 1, "2": 1}
    assert payload["macwilliams_n1"] is True


def test_spectrum_refuses_a_box_enumerator_above_the_bound(tmp_path, capsys, monkeypatch):
    from nrtcodes import geometry

    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(geometry, "_cumulative_counts", no_histogram)
    pts = tmp_path / "two.points"
    pts.write_text("2 12 12 2\n" + " ".join(["0" * 12] * 12) + "\n"
                   + " ".join(["0" * 11 + "1"] * 12) + "\n")
    code, out, err = run(["spectrum", "--in", str(pts)], capsys)
    assert code == 2 and out == ""
    assert err == ("error: box enumerator has (s+1)^n = 23298085122481 coefficients, "
                   "above the bound 2097152\n")


def test_errors_are_json_under_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.points"
    bad.write_text("# comment\n2 1 2 1\n0x\n")
    cases = (
        (["verify", "--kind", "optimum", "--in", str(bad)],
         {"error": "line 3: digit out of range in '0x'", "line": 3}),
        (["spectrum", "--in", str(tmp_path / "absent.points")],
         {"error": f"[Errno 2] No such file or directory: '{tmp_path / 'absent.points'}'"}),
        (["field-info", "--q", "6"], {"error": "q = 6 is not a prime power"}),
        (["generate", "--q", "2", "--n", "4", "--s", "1", "--k", "1"],
         {"error": "q = 2 < n - 1 = 3: no such distributions exist (the spectrum "
                   "entry above the minimum weight would be negative)"}),
    )
    for args, expected in cases:
        code, out, err = run(args, capsys)
        assert code == 2 and out == "" and err == f"error: {expected['error']}\n"
        code, out, err = run(args + ["--format", "json"], capsys)
        assert code == 2 and err == "" and out.count("\n") == 1
        assert json.loads(out) == {"schema": 1, **expected}


def test_internal_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    from nrtcodes import cli

    pts = tmp_path / "two.points"
    pts.write_text("2 1 1 2\n0\n1\n")
    for exc, text in ((RuntimeError("boom"), "RuntimeError: boom"),
                      (MemoryError(), "MemoryError: "),
                      (AssertionError("cross-check failed"),
                       "AssertionError: cross-check failed")):
        def fail(dist, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "star_discrepancy", fail)
        code, out, err = run(["discrepancy", "--in", str(pts)], capsys)
        assert code == 2 and out == "" and err == f"error: internal: {text}\n"
        code, out, err = run(["discrepancy", "--in", str(pts), "--format", "json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"schema": 1, "error": f"internal: {text}"}


def test_verify_mds_finds_the_minimum_weight_once(tmp_path, capsys, monkeypatch):
    from nrtcodes.codes import LinearCode

    calls = []
    min_weight = LinearCode.min_weight

    def counted(self, *args, **kwargs):
        calls.append(args)
        return min_weight(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "min_weight", counted)
    code_file = tmp_path / "c.code"
    code_file.write_text("3 2 2 2\n0 1 1 1\n1 0 1 0\n")
    code, out, _ = run(["verify", "--kind", "mds", "--in", str(code_file)], capsys)
    assert code == 0 and out == "MDS: True (weight 3, bound 3)\n"
    assert len(calls) == 1


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_spectrum_enumerators_iff_the_input_is_its_own_span(data):
    # the oracle builds the span; spectrum itself never does
    gf = data.draw(st.sampled_from([GF(2), GF(3), GF(2, 2)]))
    sp = Space(gf, data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    word = st.lists(st.integers(0, gf.q - 1), min_size=sp.dim, max_size=sp.dim)
    span = LinearCode(sp, data.draw(st.lists(word, max_size=2))).words_array()
    kind = data.draw(st.sampled_from(["span", "subset", "coset", "duplicate", "multiset"]))
    if kind == "multiset":
        rows = np.array(data.draw(st.lists(word, min_size=1, max_size=10)))
    elif kind == "subset":
        keep = data.draw(st.lists(st.integers(0, len(span) - 1), min_size=1, unique=True))
        rows = span[keep]
    else:
        rows = span[data.draw(st.permutations(range(len(span))))]
        if kind == "coset":
            rows = gf.add_table[rows, np.array(data.draw(word))]
        elif kind == "duplicate":
            rows = np.concatenate([rows, rows[:data.draw(st.integers(1, len(rows)))]])
            if data.draw(st.booleans()):
                rows = rows[-len(span):]  # as many points as the span, one repeated
    dist = Distribution(sp, array=np.asarray(rows).reshape(len(rows), sp.n, sp.s))
    code = LinearCode(sp, dist.array().reshape(len(dist), sp.dim))
    linear = len(code) == len(dist) and dist.same_multiset(code.distribution())

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.points")
        with open(path, "w") as fh:
            write_point_set(fh, dist)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["spectrum", "--in", path, "--format", "json"]) == 0
    payload = json.loads(out.getvalue())
    assert ("weight_enumerator" in payload) == linear, kind
    assert ("box_enumerator" in payload) == linear
    assert ("macwilliams_n1" in payload) == (linear and sp.n == 1)
    if linear:
        assert payload["weight_enumerator"] == weight_enumerator(dist)
        assert payload["box_enumerator"] == {
            ",".join(map(str, a)): c for a, c in corner_box_counts(dist).items()}
