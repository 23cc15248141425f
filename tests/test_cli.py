import json
import os
import subprocess
import sys

import pytest

import nrtcodes
from nrtcodes.cli import main


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
