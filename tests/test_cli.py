import argparse
import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import nrtcodes
from nrtcodes.cli import build_parser, main
from nrtcodes.codes import (LinearCode, corner_box_counts, rank, read_code,
                            weight_enumerator, write_code)
from nrtcodes.construct import build_mds_code
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, write_point_set

from _helpers import (lattice_discrepancy, read_point_array_by_line, run_cli_capped, run_fresh,
                      run_without_numpy, same_multiset)


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


def test_point_files_are_read_as_bytes(tmp_path, capsys):
    pts = tmp_path / "in.points"
    verify = ["verify", "--kind", "optimum", "--in", str(pts)]
    # a comment is skipped whatever bytes it holds, here a Latin-1 one
    pts.write_bytes(b"# caf\xe9\n2 1 2 1\n01\n")
    assert run(verify, capsys) == (0, "optimum: True\n", "")
    # a non-ASCII byte in a digit string is a bad digit on its line
    pts.write_bytes(b"2 1 2 1\n0\xe9\n")
    message = "line 2: bad digit in '0\ufffd'"
    assert run(verify, capsys) == (2, "", f"error: {message}\n")
    code, out, _ = run(verify + ["--format", "json"], capsys)
    assert code == 2 and json.loads(out) == {"schema": 1, "error": message, "line": 2}
    # a lone CR ends a line, and the spaces str.split() knows separate tokens
    pts.write_bytes(b"2 1 2 2\r01\r1z\r")
    assert run(verify, capsys) == (2, "", "error: line 3: digit out of range in '1z'\n")
    pts.write_bytes("2 2 1 1\n0\xa01\n".encode())
    assert run(verify, capsys)[0] == 0
    # code files share the header reader
    code_file = tmp_path / "in.code"
    code_file.write_bytes(b"# caf\xe9\n2 1 2 1\n1 0\n")
    assert run(["dual", "--in", str(code_file)], capsys)[0] == 0


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


def test_basechange_converts_to_base_p_once(tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "f4")
    run(["generate", "--p", "2", "--e", "2", "--n", "2", "--s", "2",
         "--k", "2", "--out", prefix], capsys)
    args = ["basechange", "--in", f"{prefix}.points", "--out", str(tmp_path / "b.points")]
    code, before, _ = run(args, capsys)
    written = (tmp_path / "b.points").read_bytes()
    calls = []
    to_base_p = Distribution.to_base_p
    monkeypatch.setattr(Distribution, "to_base_p",
                        lambda self: calls.append(1) or to_base_p(self))
    assert run(args, capsys) == (code, before, "")
    assert calls == [1] and (tmp_path / "b.points").read_bytes() == written


def test_code_commands_above_2_to_the_63_codewords(tmp_path, capsys):
    # the dual of a [20,2] code over F_32 has 32^18 = 2^90 codewords,
    # beyond what len() can return; the size is compared as q^k instead
    prefix, dual = str(tmp_path / "b32"), str(tmp_path / "d.code")
    assert run(["generate", "--q", "32", "--n", "5", "--s", "4", "--k", "2",
                "--out", prefix], capsys)[0] == 0
    assert run(["dual", "--in", f"{prefix}.code", "--out", dual], capsys) == (
        0, "code [20,2] weight 19\ndual [20,18] weight 3\n", "")
    assert run(["verify", "--kind", "mds", "--in", dual], capsys) == (
        0, "MDS: True (weight 3, bound 3)\n", "")
    code, out, err = run(["peano", "--type", "code", "--g", "5", "--in", dual], capsys)
    assert code == 0 and err == "" and "NRT weight 3 -> 3\n" in out


def test_spectrum_of_a_set_whose_n1_dual_passes_2_to_the_63(tmp_path, capsys):
    # the zero word and the word with only its top digit set: a [70,1]
    # span whose dual has 2^69 words, read from its profile ranks
    pts = tmp_path / "two.points"
    pts.write_text("2 1 70 2\n" + "0" * 70 + "\n1" + "0" * 69 + "\n")
    code, out, err = run(["spectrum", "--in", str(pts)], capsys)
    assert code == 0 and err == ""
    assert out.endswith("n=1 MacWilliams identity: True\n")


def test_verify_mds_of_a_deep_code_walks_without_recursing_per_column(tmp_path, capsys):
    # q = 2, n = 1, s = 1200, k = 100: the check matrix has 1100 rows, and
    # its profile walk goes 1100 columns down one block
    rows = ["0 " * r + "1" + " 0" * (1199 - r) for r in range(100)]
    deep = tmp_path / "deep.code"
    deep.write_text("2 1 1200 100\n" + "\n".join(rows) + "\n")
    assert run(["verify", "--kind", "mds", "--in", str(deep)], capsys) == (
        0, "MDS: True (weight 1101, bound 1101)\n", "")


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


def test_generate_composite_answers_a_dual_too_large_to_enumerate(tmp_path, capsys):
    # the [18, 12] dual over F_5 has 5^12 words: its Hamming weight, the
    # NRT weight at depth 1, is read off its check matrix
    prefix = str(tmp_path / "comp")
    code, out, err = run(["generate", "--q", "5", "--n", "3", "--s", "3", "--g", "2",
                          "--t", "1", "--out", prefix, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["weights"] == {"nrt": 13, "hamming": 5, "dual_nrt": 7, "dual_hamming": 3}
    assert report["weight_relations_ok"] is report["optimum_verified"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comp.code", "comp.points"]


@pytest.mark.parametrize("q, n, s", [(8, 3, 2), (7, 4, 2), (5, 3, 3)])
def test_composite_dual_hamming_weight_is_the_least_dependent_columns(tmp_path, capsys,
                                                                       q, n, s):
    # duals of more than 2^21 words: the reported weight against a count of
    # the dependent columns of a check matrix of the dual, C's basis with
    # each block reversed (the dual is orthogonal to C under the reversed pairing)
    prefix = str(tmp_path / "c")
    code, out, _ = run(["generate", "--q", str(q), "--n", str(n), "--s", str(s), "--g", "2",
                        "--t", "1", "--out", prefix, "--format", "json"], capsys)
    assert code == 0
    with open(f"{prefix}.code") as fh:
        built = read_code(fh)
    space = built.space
    assert space.q ** (space.dim - built.k) > 1 << 21
    check = [[v for j in range(space.n) for v in reversed(row[j * space.s:(j + 1) * space.s])]
             for row in built.basis]
    columns = list(zip(*check))
    least = next(d for d in range(1, len(columns) + 1)
                 if any(rank(space.gf, [columns[i] for i in chosen]) < d
                        for chosen in combinations(range(len(columns)), d)))
    assert json.loads(out)["weights"]["dual_hamming"] == least


def test_field_info(capsys):
    code, out, _ = run(["field-info", "--q", "4"], capsys)
    assert code == 0
    assert "q = 4 = 2^2" in out
    code, out, _ = run(["field-info", "--q", "6"], capsys)
    assert code == 2
    for q in ("2048", "1000003"):
        code, out, err = run(["field-info", "--q", q], capsys)
        assert code == 2 and err == f"error: q = {q} exceeds the field bound 1024\n"


def test_field_info_refuses_a_huge_p_or_e_at_once(capsys):
    # neither a primality test of p nor p^e is computed first
    import time

    for args, q in ((["--p", "10000000000000061"], "10000000000000061"),
                    (["--p", "2", "--e", "100000"], "2^100000")):
        start = time.perf_counter()
        code, out, err = run(["field-info", *args], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: q = {q} exceeds the field bound 1024\n"


def test_field_info_names_a_long_q_as_a_power(capsys):
    # 1021^1024 has 3083 digits: the line names it p^e and never forms it
    code, out, err = run(["field-info", "--p", "1021", "--e", "1024"], capsys)
    assert code == 2 and out == ""
    assert err == "error: q = 1021^1024 exceeds the field bound 1024\n"
    # a q of at most 20 digits is still written out
    code, _, err = run(["field-info", "--p", "2", "--e", "64"], capsys)
    assert code == 2 and err == f"error: q = {2 ** 64} exceeds the field bound 1024\n"


def test_nodes_override(tmp_path, capsys):
    prefix = str(tmp_path / "inf")
    code, out, _ = run(["generate", "--q", "2", "--n", "3", "--s", "1",
                        "--k", "1", "--nodes", "0,1,inf", "--out", prefix],
                       capsys)
    assert code == 0
    with open(f"{prefix}.points") as fh:
        assert "nodes 0,1,inf" in fh.read()


@pytest.mark.parametrize("nodes, token", [("0,x", "x"), ("0,,1", ""), ("0,3", "3"),
                                          ("0,1.5", "1.5")])
def test_bad_nodes_are_usage_errors(tmp_path, capsys, nodes, token):
    argv = ["generate", "--q", "3", "--n", "2", "--s", "1", "--k", "1",
            "--nodes", nodes, "--out", str(tmp_path / "g")]
    message = f"node {token!r} is not a label 0..2 or inf"
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 2 and err == ""
    assert json.loads(out) == {"schema": 1, "error": message}
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("args", (
    ["--q", "1021", "--n", "2", "--s", "200", "--k", "400"],
    ["--q", "5", "--n", "2", "--s", "10", "--g", "2", "--t", "1"],
))
def test_generate_refuses_oversize_before_building_a_row(tmp_path, capsys, monkeypatch,
                                                          args):
    from nrtcodes import construct

    def no_rows(*args):
        raise AssertionError("a generator row was built")

    monkeypatch.setattr(construct, "_monomial_rows", no_rows)
    code, out, err = run(["generate", *args, "--out", str(tmp_path / "big")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: q^k = ") and err.endswith(
        " points exceed the bound of 2097152 (2^21)\n")
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


# (arguments, the message each refusal gives); {out} is a prefix in the
# test's directory, {code} a code file there with n = 3
REFUSALS = (
    (["field-info"], "need --q or --p/--e"),
    (["generate", "--q", "5", "--s", "2", "--k", "2", "--out", "{out}"],
     "generate needs --n, --s and --k"),
    (["generate", "--q", "5", "--n", "2", "--s", "2", "--k", "5", "--out", "{out}"],
     "need 1 <= k <= n*s"),
    (["generate", "--q", "5", "--n", "2", "--s", "2", "--k", "0", "--out", "{out}"],
     "need 1 <= k <= n*s"),
    (["generate", "--q", "5", "--n", "2", "--s", "2", "--g", "2", "--out", "{out}"],
     "composite generation needs --n, --s and --t"),
    (["generate", "--q", "5", "--n", "2", "--s", "2", "--g", "2", "--t", "1", "--k", "2",
      "--out", "{out}"], "--k is determined by --t in composite mode (k = s*t)"),
    (["peano", "--type", "code", "--g", "2", "--in", "{code}", "--out", "{out}"],
     "--g must divide n"),
    (["peano", "--type", "code", "--g", "abc", "--in", "{code}", "--out", "{out}"],
     "argument --g: invalid int value: 'abc'"),
    (["generate", "--q", "5", "--n", "2", "--s", "2", "--g", "abc", "--t", "1",
      "--out", "{out}"], "argument --g: invalid int value: 'abc'"),
    # a field given twice must be given consistently
    (["field-info", "--q", "4", "--p", "3", "--e", "2"], "--q 4 is not p^e = 3^2 = 9"),
    (["field-info", "--q", "4", "--p", "2"], "--q 4 is not p^e = 2^1 = 2"),
    (["field-info", "--q", "8", "--e", "2"], "--q 8 is not p^e = 2^2 = 4"),
    (["generate", "--q", "4", "--p", "3", "--e", "2", "--n", "2", "--s", "2", "--k", "2",
      "--out", "{out}"], "--q 4 is not p^e = 3^2 = 9"),
    (["generate", "--q", "8", "--e", "2", "--n", "2", "--s", "2", "--k", "2",
      "--out", "{out}"], "--q 8 is not p^e = 2^2 = 4"),
)


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_refusals_exit_2_and_write_nothing(argv, message, tmp_path, capsys):
    code_file = tmp_path / "c.code"
    code_file.write_text("5 3 1 1\n1 0 0\n")
    args = [a.format(out=tmp_path / "o", code=code_file) for a in argv]
    for fmt in ("text", "json"):
        try:
            code = main(args + ["--format", fmt])
        except SystemExit as exc:  # argparse reports its own refusals in text
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and "Traceback" not in captured.out + captured.err
        if fmt == "json":
            assert captured.err == "" and json.loads(captured.out) == {
                "schema": 1, "error": message}
        else:
            assert captured.out == ""
            assert captured.err.splitlines()[-1].endswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == [code_file]


def test_field_info_builds_no_tables():
    # a command that needs no arithmetic builds neither table set
    out = run_without_numpy("def refuse_lookups(*field):\n"
                            "    raise AssertionError('field lookups built')\n"
                            "gf._field_lookups = refuse_lookups\n"
                            "assert cli.main(['field-info', '--q', '16']) == 0\n")
    assert "q = 16 = 2^4" in out


def test_code_commands_start_without_numpy(tmp_path):
    # the route rule charges numpy's start to counting words, so these
    # commands read profile ranks or walk a check matrix, with the scalar
    # lookups only; with numpy loaded, words would win at (4,4,4,5)
    for gf, name in ((GF(5), "prime"), (GF(2, 2), "extension")):
        space = Space(gf, 2, 2)
        code = LinearCode(space, [[1, 2, 0, 1], [0, 1, 1, 3]])
        assert code.k == 2
        with open(tmp_path / f"{name}.code", "w") as fh:
            write_code(fh, code)
    # the built code files of the benchmark's analyze workload
    for gf, n, s, k, name in ((GF(5), 4, 3, 6, "L5"), (GF(2, 2), 4, 4, 5, "L4")):
        with open(tmp_path / f"{name}.code", "w") as fh:
            write_code(fh, build_mds_code(Space(gf, n, s), k))
    commands = [[f"dual --in {name}.code",
                 f"dual --in {name}.code --out {name}.dual",
                 f"verify --kind mds --in {name}.code",
                 f"peano --type code --g 2 --in {name}.code"]
                for name in ("prime", "extension", "L5", "L4")]
    script = "".join(f"assert cli.main({argv.split()!r}) in (0, 1)\n"
                     for group in commands for argv in group)
    out = run_without_numpy(script, cwd=tmp_path)
    assert out.count("dual [4,2]") == 4 and out.count("MDS:") == 4
    assert out.count("merged to [4,2]_4") == 2
    assert out.count("code [12,6] weight 7") == out.count("dual [12,6] weight 7") == 2
    assert out.count("code [16,5] weight 12") == out.count("dual [16,11] weight 6") == 2
    assert "MDS: True (weight 7, bound 7)" in out and "MDS: True (weight 12, bound 12)" in out
    for name in ("prime", "extension"):
        with open(tmp_path / f"{name}.dual") as fh:
            dual = read_code(fh)
        assert dual.k == 2


def test_commands_import_only_what_they_run(tmp_path, capsys):
    # start-up loads no dataclasses, fractions, json or peano; the commands
    # that need fractions, json or peano import them as they run, with the
    # same answers
    code = LinearCode(Space(GF(5), 2, 2), [[1, 2, 0, 1], [0, 1, 1, 3]])
    with open(tmp_path / "c.code", "w") as fh:
        write_code(fh, code)
    with open(tmp_path / "c.points", "w") as fh:
        write_point_set(fh, code.distribution())
    commands = [f"dual --in {tmp_path / 'c.code'}",
                f"verify --kind mds --in {tmp_path / 'c.code'}",
                f"discrepancy --in {tmp_path / 'c.points'}",
                f"peano --type points --g 2 --in {tmp_path / 'c.points'}",
                f"dual --format json --in {tmp_path / 'c.code'}",
                f"verify --kind mds --format json --in {tmp_path / 'none.code'}"]
    expected = [run(argv.split(), capsys) for argv in commands]
    calls = [f"assert cli.main({argv.split()!r}) == {status}\n"
             for argv, (status, _, _) in zip(commands, expected)]
    script = ("import sys\n"
              "from nrtcodes import cli\n"
              "def loaded(*names):\n"
              "    return [name for name in names if name in sys.modules]\n"
              "assert not loaded('dataclasses', 'fractions', 'json', 'nrtcodes.peano')\n"
              + calls[0] + calls[1] +
              "assert not loaded('dataclasses', 'numpy', 'json')\n"
              + "".join(calls[2:]) +
              "assert not loaded('dataclasses')\n")
    assert run_fresh(script) == "".join(out for _, out, _ in expected)
    assert [err for _, _, err in expected] == [""] * 6
    assert expected[1][1] == "MDS: False (weight 2, bound 3)\n"
    assert expected[3][1] == "merged 25 points into Q^1(q^4)\n"
    # a report and an error under --format json, both on stdout
    assert [json.loads(out)["schema"] for _, out, _ in expected[4:]] == [1, 1]
    assert expected[5][0] == 2 and "error" in json.loads(expected[5][1])


def test_linear_point_files_run_without_numpy(tmp_path, capsys):
    # every file `generate` and `peano` write spells out its span in order:
    # it is read as its rows, and these commands answer from them alone
    a, c = tmp_path / "a", tmp_path / "c"
    commands = [f"generate --q 4 --n 4 --s 2 --k 5 --out {a}",
                f"generate --q 5 --n 2 --s 2 --g 2 --t 1 --out {c}",
                f"verify --kind optimum --in {a}.points",
                f"verify --kind net --delta 3 --in {a}.points",
                f"peano --type points --g 2 --in {a}.points --out {a}-merged.points",
                f"spectrum --in {a}.points",
                f"verify --kind optimum --in {a}-merged.points",
                f"verify --kind optimum --in {c}.points",
                f"verify --kind net --delta 0 --in {c}.points",
                f"spectrum --format json --in {c}.points",
                f"discrepancy --in {a}.points",
                f"discrepancy --format json --in {a}-merged.points"]
    expected = [run(argv.split(), capsys) for argv in commands]
    written = {path: path.read_bytes() for path in tmp_path.iterdir()}
    calls = "".join(f"assert cli.main({argv.split()!r}) == {status}\n"
                    for argv, (status, _, _) in zip(commands, expected))
    assert run_without_numpy(calls) == "".join(out for _, out, _ in expected)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written
    assert [status for status, _, _ in expected] == [0] * len(commands)
    # a digital shift in span order is read as its rows and an offset, and
    # answers from them alone too
    lines = (tmp_path / "a.points").read_text().split("\n")
    first = lines.index("4 4 2 1024") + 1
    # GF(4) adds labels as bit strings: 1 added to every leading digit
    shifted = lines[:first] + [str(int(x[0]) ^ 1) + x[1:] if x else x
                               for x in lines[first:]]
    shift = tmp_path / "shifted"
    (tmp_path / "shifted.points").write_text("\n".join(shifted))
    commands = [f"verify --kind optimum --in {shift}.points",
                f"verify --kind net --delta 3 --in {shift}.points",
                f"spectrum --format json --in {shift}.points",
                f"peano --type points --g 2 --in {shift}.points --out {shift}-merged.points",
                f"discrepancy --in {shift}.points"]
    expected = [run(argv.split(), capsys) for argv in commands]
    written = {path: path.read_bytes() for path in tmp_path.iterdir()}
    calls = "".join(f"assert cli.main({argv.split()!r}) == {status}\n"
                    for argv, (status, _, _) in zip(commands, expected))
    assert run_without_numpy(calls) == "".join(out for _, out, _ in expected)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written
    assert [status for status, _, _ in expected] == [0] * len(commands)
    assert "weight_enumerator" not in json.loads(expected[2][1])  # a coset is not linear
    # with numpy loaded, a discrepancy took the numpy route; without it, the
    # Python route, to the same fraction as the full-grid oracle.  A grid of
    # 3^21 cells is refused from the rows of its span, with no numpy either
    with open(tmp_path / "shifted.points") as fh:
        shifted = Distribution(Space(GF(2, 2), 4, 2), array=read_point_array_by_line(fh))
    assert expected[4][1] == f"{lattice_discrepancy(shifted)}\n"
    (tmp_path / "wide.points").write_text("2 21 1 2\n" + " ".join("0" * 21) + "\n"
                                          + " ".join("1" * 21) + "\n")
    assert run_without_numpy(f"assert cli.main(['discrepancy', '--in', "
                             f"{str(tmp_path / 'wide.points')!r}]) == 2\n") == ""
    # a moved point and a tab: each file is parsed into an array, with
    # numpy, to the same answers and witness
    moved = lines.copy()
    moved[first + 9] = ("1" if moved[first + 9][0] != "1" else "2") + moved[first + 9][1:]
    tabs = lines.copy()
    tabs[first + 5] = tabs[first + 5].replace(" ", "\t", 1)
    copies = []
    for name, text in (("moved", moved), ("tabs", tabs)):
        (tmp_path / f"{name}.points").write_text("\n".join(text))
        copies.append(f"verify --kind optimum --in {tmp_path / name}.points")
    expected = [run(argv.split(), capsys) for argv in copies]
    assert [status for status, _, _ in expected] == [1, 0]
    assert expected[0][1].startswith("optimum: False\nfirst failing box:")
    calls = "".join(f"assert cli.main({argv.split()!r}) == {status}\n"
                    for argv, (status, _, _) in zip(copies, expected))
    assert run_fresh("import sys\nfrom nrtcodes import cli\n" + calls
                     + "assert 'numpy' in sys.modules\n") == "".join(
                         out for _, out, _ in expected)


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
    from nrtcodes import bulk

    def no_histogram(*args):
        raise AssertionError("the histogram was allocated")

    monkeypatch.setattr(bulk, "_cumulative_counts", no_histogram)
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


@pytest.mark.parametrize("command, name, text, message", (
    ("dual", "c.code", "2 2 1 2\n1 0\n", "line 2: fewer rows than the header promised"),
    ("dual", "c.code", "2 2 1 1\n1 x\n", "line 2: labels must be integers"),
    ("dual", "c.code", "2 2 1 1\n1 2\n", "line 2: label out of range"),
    # labels are ASCII decimal digits: no sign, no "_", no other script's digits
    ("dual", "c.code", "5 2 2 1\n+1 0 0 1\n", "line 2: labels must be integers"),
    ("dual", "c.code", "5 2 2 1\n-0 1 0 0\n", "line 2: labels must be integers"),
    ("dual", "c.code", "5 2 2 1\n\u0663 0 0 1\n", "line 2: labels must be integers"),
    ("dual", "c.code", "5 2 2 1\n1_0 0 0 1\n", "line 2: labels must be integers"),
    ("dual", "c.code", "2 1 0 1\n0\n", "line 1: bad code header parameters"),
    ("verify", "p.points", "2 2 1 1 1\n8 1 2 1\n00\n",
     "line 2: field line and header disagree on q"),
    ("verify", "p.points", "2 0 1 1\n0\n", "line 1: bad point set header parameters"),
    # header and field-line values are ASCII decimal digits, as labels are
    ("verify", "p.points", "+5 2 2 1\n00 00\n", "line 1: header values must be integers"),
    ("verify", "p.points", "\u0665 2 2 1\n00 00\n", "line 1: header values must be integers"),
    ("verify", "p.points", "2 1_0 1 1\n0 0\n", "line 1: header values must be integers"),
    ("verify", "p.points", "+2 2 1 1 1\n4 1 1 1\n0\n",
     "line 1: expected field line or 4-value header"),
    ("dual", "c.code", "+5 2 2 1\n1 0 0 1\n", "line 1: header values must be integers"),
    ("dual", "c.code", "2 2 1 1 1\n4 1 1 -1\n1\n", "line 2: header values must be integers"),
    ("dual", "c.code", "2 2 1 \u0661 1\n4 1 1 1\n1\n",
     "line 1: expected field line or 4-value header"),
))
def test_file_errors_name_their_line(tmp_path, capsys, command, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    kind = ["--kind", "optimum"] if command == "verify" else []
    code, out, err = run([command, *kind, "--in", str(path), "--format", "json"], capsys)
    line = int(message.split(":")[0].split()[1])
    assert (code, err) == (2, "")
    assert json.loads(out) == {"schema": 1, "error": message, "line": line}


def test_verify_with_a_huge_k_checks_the_size_without_q_to_the_k(tmp_path, capsys):
    import tracemalloc

    prefix = str(tmp_path / "g")
    run(["generate", "--q", "2", "--n", "2", "--s", "2", "--k", "4", "--out", prefix],
        capsys)
    tracemalloc.start()
    try:
        code, out, err = run(["verify", "--kind", "optimum", "--in", f"{prefix}.points",
                              "--k", "10000000"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: not q^k points\n")
    assert peak < 2 << 20


def test_usage_errors_are_json_under_json_format(capsys):
    cases = (
        (["verify", "--kind", "foo", "--in", "x"],
         "argument --kind: invalid choice: 'foo' (choose from 'net', 'optimum', 'mds')"),
        (["field-info", "--p", "2", "--e", "0"], "argument --e: 0 is not a positive integer"),
        (["dual"], "the following arguments are required: --in"),
        (["generate", "--q", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
    )
    for args, message in cases:
        # text mode is argparse's own report: usage, then the message
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: nrtcodes")
        assert captured.err.endswith(f"error: {message}\n")
        for fmt in (["--format", "json"], ["--format=json"], ["--fo", "json"]):
            code, out, err = run(args + fmt, capsys)
            assert code == 2 and err == "" and out.count("\n") == 1
            assert json.loads(out) == {"schema": 1, "error": message}


def test_internal_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    from nrtcodes import cli

    pts = tmp_path / "two.points"
    pts.write_text("2 1 1 2\n0\n1\n")
    # running out of memory is a resource refusal, not a fault of the program
    for exc, text in ((RuntimeError("boom"), "internal: RuntimeError: boom"),
                      (MemoryError(), "out of memory"),
                      (MemoryError("Unable to allocate 20.3 MiB"),
                       "out of memory: Unable to allocate 20.3 MiB"),
                      (AssertionError("cross-check failed"),
                       "internal: AssertionError: cross-check failed")):
        def fail(dist, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "star_discrepancy", fail)
        code, out, err = run(["discrepancy", "--in", str(pts)], capsys)
        assert code == 2 and out == "" and err == f"error: {text}\n"
        code, out, err = run(["discrepancy", "--in", str(pts), "--format", "json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"schema": 1, "error": text}


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_main_returns_2_when_stdout_cannot_be_written(capsys):
    # the report goes to stderr, the one stream left, in either format
    full = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    for argv, err in ((["field-info", "--q", "4"], full),
                      (["field-info", "--q", "4", "--format", "json"], full),
                      (["field-info", "--q", "6", "--format", "json"],
                       "error: q = 6 is not a prime power\n"),
                      (["field-info", "--help"], full)):
        with contextlib.redirect_stdout(_FullStream()):
            code = main(argv)
        assert (code, capsys.readouterr().err) == (2, err), argv


def test_run_ends_the_process_with_the_code(monkeypatch, capsys):
    from nrtcodes import cli

    exits = []
    monkeypatch.setattr(cli.os, "_exit", exits.append)

    def raising(exc):
        def fail():
            raise exc
        return fail

    for entry, code in ((lambda: 1, 1), (raising(SystemExit(0)), 0),
                        (raising(SystemExit(2)), 2), (raising(MemoryError()), 2)):
        monkeypatch.setattr(cli, "main", entry)
        cli.run()
        assert exits.pop() == code
    assert capsys.readouterr().err == "error: internal: MemoryError: \n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_unwritable_stdout_exits_2_without_traceback(tmp_path):
    # both process entries, stdout buffered (the failure shows at `run`'s
    # flush) and unbuffered (at `main`'s print): a numpy-free code command
    # and a point-file command in both formats, and an error report
    golden = Path(__file__).parent / "golden" / "in"
    for name in ("opt.code", "opt.points"):
        shutil.copy(golden / name, tmp_path / name)
    src = os.path.dirname(os.path.dirname(nrtcodes.__file__))
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    entries = ((["-m", "nrtcodes.cli"], {**base, "PYTHONPATH": src}),
               # what the installed `nrtcodes` script runs
               (["-c", "import sys; from nrtcodes.cli import run; sys.exit(run())"],
                {**base, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}))
    full = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    cases = [(["verify", "--kind", kind, "--in", name, *fmt], full)
             for kind, name in (("mds", "opt.code"), ("optimum", "opt.points"))
             for fmt in ([], ["--format", "json"])]
    cases.append((["verify", "--kind", "mds", "--in", "absent.code", "--format", "json"],
                  f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'absent.code'"))
    for entry, env in entries:
        for argv, err in cases:
            with open("/dev/full", "w") as stdout:
                result = subprocess.run([sys.executable, *entry, *argv], stdout=stdout,
                                        stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                                        env=env, timeout=120)
            assert (result.returncode, result.stderr) == (2, err + "\n"), (entry, argv)


def test_verify_mds_finds_the_minimum_weight_once(tmp_path, capsys, monkeypatch):
    from nrtcodes.codes import LinearCode

    calls = []
    min_weight = LinearCode.min_weight

    def counted(self, *args, **kwargs):
        calls.append(args)
        return min_weight(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "min_weight", counted)
    # a yes is the certificate's: the bound is the weight, and nothing counts it
    code_file = tmp_path / "c.code"
    code_file.write_text("3 2 2 2\n0 1 1 1\n1 0 1 0\n")
    code, out, _ = run(["verify", "--kind", "mds", "--in", str(code_file)], capsys)
    assert code == 0 and out == "MDS: True (weight 3, bound 3)\n"
    assert calls == []
    # a "no" counts the weight once
    code_file.write_text("2 2 2 2\n1 0 0 0\n0 1 0 0\n")
    code, out, _ = run(["verify", "--kind", "mds", "--in", str(code_file)], capsys)
    assert code == 1 and out == "MDS: False (weight 1, bound 3)\n"
    assert calls == [("nrt",)]


def test_verify_mds_says_yes_without_numpy(tmp_path):
    # 27 profiles and 4 words: a counted weight would take the word blocks
    space = Space(GF(2), 3, 2)
    with open(tmp_path / "ciw.code", "w") as fh:
        write_code(fh, build_mds_code(space, 2))
    out = run_without_numpy("assert cli.main(['verify', '--kind', 'mds', '--in', "
                            "'ciw.code']) == 0\n", cwd=tmp_path)
    assert out == "MDS: True (weight 5, bound 5)\n"


@pytest.mark.parametrize("k", [3, 5])
def test_generate_builds_its_rows_once_and_decides_once(tmp_path, capsys, monkeypatch, k):
    from nrtcodes import codes, construct

    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((construct, "_monomial_rows"), (codes, "_dependent_profile")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, _ = run(["generate", "--q", "4", "--n", "3", "--s", "2", "--k", str(k),
                        "--out", str(tmp_path / "g")], capsys)
    assert code == 0 and "MDS verified: True" in out and "optimum verified: True" in out
    assert sorted(calls) == ["_dependent_profile", "_monomial_rows"]


def test_composite_generate_counts_only_hamming_weights_on_a_yes(tmp_path, capsys,
                                                                  monkeypatch):
    metrics = []
    min_weight = LinearCode.min_weight

    def counted(self, metric="nrt", *args, **kwargs):
        metrics.append(metric)
        return min_weight(self, metric, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "min_weight", counted)
    code, out, _ = run(["generate", "--q", "5", "--n", "2", "--s", "3", "--g", "2",
                        "--t", "1", "--format", "json", "--out", str(tmp_path / "c")], capsys)
    report = json.loads(out)
    assert code == 0 and report["optimum_verified"] and report["weight_relations_ok"]
    assert report["weights"] == {"nrt": 7, "hamming": 3, "dual_nrt": 7, "dual_hamming": 4}
    assert metrics == ["hamming", "hamming"]


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
    linear = len(code) == len(dist) and same_multiset(dist, code.distribution())

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


# the options each command's handler reads, and so the only ones it accepts
ACCEPTED = {
    "generate": {"--p", "--e", "--q", "--n", "--s", "--k", "--g", "--t", "--nodes",
                 "--out", "--format"},
    "verify": {"--in", "--kind", "--k", "--delta", "--format"},
    "spectrum": {"--in", "--format"},
    "dual": {"--in", "--out", "--format"},
    "peano": {"--in", "--g", "--type", "--out", "--format"},
    "basechange": {"--in", "--out", "--format"},
    "discrepancy": {"--in", "--format"},
    "field-info": {"--p", "--e", "--q", "--format"},
}
# every command once accepted these, and the file commands --in as well
FORMERLY_SHARED = ("--p", "--e", "--q", "--n", "--s", "--k", "--g", "--t", "--delta",
                   "--nodes", "--format", "--out")
FORMERLY_IGNORED = [(command, option) for command, accepted in ACCEPTED.items()
                    for option in FORMERLY_SHARED + ("--in",) * ("--in" in accepted)
                    if option not in accepted]
REQUIRED = {"verify": ["--kind", "mds"]}


def test_each_command_accepts_only_the_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for command, p in sub.choices.items()}
    assert accepted == ACCEPTED
    assert sum(map(len, accepted.values())) == 35
    assert len(FORMERLY_IGNORED) == 104 - 35


@pytest.mark.parametrize("command,option", FORMERLY_IGNORED)
def test_formerly_ignored_options_are_usage_errors(command, option, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    args = [command] + REQUIRED.get(command, []) + ["--in", "x"] * ("--in" in ACCEPTED[command])
    args += [option, "1"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: nrtcodes")
    message = captured.err.splitlines()[-1].split(": error: ", 1)[1]
    if (command, option) == ("peano", "--t"):
        # argparse reads an unambiguous prefix as the option: --t is --type
        assert message.startswith("argument --type: invalid choice: '1'")
    else:
        assert message == f"unrecognized arguments: {option} 1"
    code, out, err = run(args + ["--format", "json"], capsys)
    assert code == 2 and err == "" and json.loads(out) == {"schema": 1, "error": message}
    assert not list(tmp_path.iterdir())


SEED_FILES = {name: (Path(__file__).parent / "golden" / "in" / name).read_text()
              for name in ("opt.points", "moved.points", "f4.points", "n1.points",
                           "opt.code", "tall.code")}
# (argv, the kind of file it reads)
FILE_COMMANDS = (
    (["verify", "--kind", "optimum"], "points"),
    (["verify", "--kind", "net"], "points"),
    (["verify", "--kind", "mds"], "code"),
    (["spectrum"], "points"),
    (["dual"], "code"),
    (["peano", "--type", "code"], "code"),
    (["peano", "--type", "points"], "points"),
    (["basechange"], "points"),
    (["discrepancy"], "points"),
)


@st.composite
def malformed_text(draw, kind):
    seeds = sorted(name for name in SEED_FILES if name.endswith(kind))
    text = SEED_FILES[draw(st.sampled_from(seeds))]
    pieces = st.text(alphabet="0123456789abz -#\n\t", max_size=8)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        text = text[:at] + draw(pieces) + text[at + cut:]
    return text


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_file_commands_keep_the_exit_contract_on_malformed_input(data):
    argv, kind = data.draw(st.sampled_from(FILE_COMMANDS))
    command = argv[0]
    text = data.draw(malformed_text(kind))
    args = argv + ["--in", "in.file"]
    for option, values in (("--k", st.integers(-1, 6)), ("--delta", st.integers(-1, 4)),
                           ("--g", st.integers(-1, 3))):
        if option in ACCEPTED[command] and data.draw(st.booleans()):
            args += [option, str(data.draw(values))]
    if "--out" in ACCEPTED[command] and data.draw(st.booleans()):
        args += ["--out", "out.file"]
    ignored = [option for c, option in FORMERLY_IGNORED if c == command]
    extra = data.draw(st.sampled_from([None] * 2 * len(ignored) + ignored))
    if extra:
        args += [extra, "1"]
    fmt = data.draw(st.sampled_from(["text", "json"]))
    args += ["--format", fmt]

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "in.file"), "w") as fh:
            fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        left = set(os.listdir(tmp))
    event(f"exit {code}")
    assert code in (0, 1, 2), (args, text)
    # a malformed file is refused by a check, never by a fault of the program
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert "internal:" not in out.getvalue() + err.getvalue()
    if extra:
        assert code == 2
    if code == 2:
        assert left == {"in.file"}, (args, text)
        if fmt == "json":
            assert "error" in json.loads(out.getvalue())
    else:
        assert left == {"in.file"} | {"out.file"} & set(args)


def test_commands_keep_the_exit_contract_under_a_memory_cap(tmp_path, capsys):
    # a small file runs under 110 MB; on several cores, OpenBLAS's default of
    # a thread per core would fail numpy's start there with exit 1 ("no").
    # A CRLF copy is parsed into an array, so numpy starts.
    run(["generate", "--q", "4", "--n", "3", "--s", "2", "--k", "3",
         "--out", str(tmp_path / "small")], capsys)
    crlf = (tmp_path / "small.points").read_bytes().replace(b"\n", b"\r\n")
    (tmp_path / "small.points").write_bytes(crlf)
    result = run_cli_capped(["verify", "--kind", "optimum", "--in", "small.points"],
                            110, tmp_path)
    assert (result.returncode, result.stdout) == (0, "optimum: True\n")
    # 531441 points under 120 MB: in span order the file is read as its
    # rows, and answered from them
    run(["generate", "--q", "9", "--n", "5", "--s", "4", "--k", "6",
         "--out", str(tmp_path / "big")], capsys)
    result = run_cli_capped(["verify", "--kind", "optimum", "--in", "big.points"],
                            120, tmp_path)
    assert (result.returncode, result.stdout) == (0, "optimum: True\n")
    # with two points swapped it is parsed into an array: an out-of-memory
    # refusal that writes nothing
    lines = (tmp_path / "big.points").read_bytes().split(b"\n")
    first = lines.index(b"9 5 4 531441") + 1
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    (tmp_path / "big.points").write_bytes(b"\n".join(lines))
    files = set(os.listdir(tmp_path))
    for args in (["verify", "--kind", "optimum"],
                 ["verify", "--kind", "net", "--delta", "2", "--format", "json"],
                 ["basechange", "--out", "out.points"],
                 ["peano", "--type", "points", "--g", "5", "--out", "out.points"]):
        result = run_cli_capped(args + ["--in", "big.points"], 120, tmp_path)
        assert result.returncode == 2, (args, result.stdout, result.stderr)
        if "json" in args:
            assert json.loads(result.stdout)["error"].startswith("out of memory")
        else:
            assert result.stderr.startswith("error: out of memory"), result.stderr
        assert set(os.listdir(tmp_path)) == files


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_malformed_input_answers_the_same_under_a_memory_cap(data):
    argv, kind = data.draw(st.sampled_from(FILE_COMMANDS))
    args = argv + ["--in", "in.file"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "in.file"), "w") as fh:
            fh.write(data.draw(malformed_text(kind)))
        capped = run_cli_capped(args, 110, tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        finally:
            os.chdir(cwd)
    assert (capped.returncode, capped.stdout, capped.stderr) == \
        (code, out.getvalue(), err.getvalue())
