"""Golden CLI transcripts: stdout, stderr, exit code and every written
file of a fixed set of commands, compared byte for byte.

Each case runs its commands in order in a fresh directory holding the
files of `tests/golden/in/`; the transcript is `tests/golden/out/<case>.txt`.
Every case runs in-process through `main(argv)`; the cases of `FRESH` run
again, each command as `python -m nrtcodes.cli` in its own process,
against the same transcripts.  After an intended output change, rewrite
the transcripts with

    NRTCODES_UPDATE_GOLDEN=1 python -m pytest tests/test_cli_golden.py

and review their diff.
"""

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nrtcodes
from nrtcodes.cli import main

GOLDEN = Path(__file__).parent / "golden"
INLINE_LIMIT = 4096  # larger written files are recorded by size and hash

CASES = {
    "generate_text": ["generate --q 3 --n 2 --s 2 --k 2 --out g"],
    "generate_json_extension_field": [
        "generate --p 2 --e 2 --n 2 --s 2 --k 3 --format json --out g"],
    "generate_composite": [
        "generate --q 5 --n 2 --s 1 --g 2 --t 1 --format json --out c"],
    "generate_nodes": ["generate --q 2 --n 3 --s 1 --k 1 --nodes 0,1,inf --out g"],
    "generate_existence_gate": [
        "generate --q 2 --n 4 --s 1 --k 1",
        "generate --q 2 --n 4 --s 1 --k 1 --format json"],
    "verify_optimum": [
        "verify --kind optimum --in opt.points",
        "verify --kind optimum --in opt.points --k 2 --format json",
        "verify --kind optimum --in one.points"],
    "verify_moved": [
        "verify --kind optimum --in moved.points",
        "verify --kind optimum --in moved.points --format json",
        "verify --kind net --in moved.points --delta 0 --format json"],
    "verify_net": ["verify --kind net --in opt.points --delta 0"],
    "verify_mds": [
        "verify --kind mds --in opt.code",
        "verify --kind mds --in opt.code --format json"],
    "spectrum_linear": [
        "spectrum --in opt.points",
        "spectrum --in opt.points --format json"],
    "spectrum_shift": [
        "spectrum --in shift.points",
        "spectrum --in shift.points --format json"],
    "spectrum_multiset": [
        "spectrum --in multi.points --format json",
        "spectrum --in zeros.points"],
    "spectrum_n1": [
        "spectrum --in n1.points",
        "spectrum --in n1.points --format json"],
    "spectrum_one_point": [
        "spectrum --in one.points",
        "spectrum --in one.points --format json"],
    "spectrum_empty": [
        "spectrum --in empty.points",
        "spectrum --in empty.points --format json"],
    # a report of 9201 bytes, more than one 8 KiB stdout buffer
    "spectrum_large": [
        "generate --q 4 --n 4 --s 4 --k 5 --out L4",
        "spectrum --in L4.points --format json"],
    "dual": [
        "dual --in opt.code --out d.code",
        "dual --in opt.code --format json"],
    "peano_code": ["peano --in tall.code --g 2 --type code --out m.code"],
    "peano_points": [
        "peano --in opt.points --g 2 --type points --out m.points --format json"],
    "basechange": [
        "basechange --in f4.points --out b.points",
        "basechange --in f4.points --format json"],
    "discrepancy": [
        "discrepancy --in two.points",
        "discrepancy --in opt.points",
        "discrepancy --in moved.points --format json",
        "discrepancy --in f4.points --format json",
        "discrepancy --in multi.points"],
    "discrepancy_bound": [
        "generate --q 4 --n 2 --s 4 --k 6 --out a",
        "discrepancy --in a.points",
        "generate --q 4 --n 5 --s 2 --k 3 --out b",
        "discrepancy --in b.points",
        "discrepancy --in b.points --format json"],
    "field_info": [
        "field-info --q 9",
        "field-info --q 8 --format json",
        "field-info --q 6",
        "field-info --q 6 --format json",
        "field-info --q 2048"],
    "error_missing_file": [
        "verify --kind optimum --in absent.points",
        "verify --kind optimum --in absent.points --format json"],
    "error_bad_digit": [
        "verify --kind optimum --in bad_digit.points",
        "spectrum --in bad_digit.points --format json"],
    "error_field_line_above_bound": [
        "verify --kind optimum --in bigfield.points",
        "discrepancy --in bigfield.points --format json"],
    # argparse's own exits: a text-mode usage error (2) and --help (0)
    "usage": [
        "discrepancy",
        "discrepancy --format json",
        "discrepancy --help"],
}

# exit 0, 1 and 2, argparse's exits, written files and a report larger
# than a stdout buffer, each command in a process of its own
FRESH = ("generate_text", "verify_moved", "error_missing_file", "field_info",
         "usage", "spectrum_large")


def _block(title, text):
    lines = [title]
    for line in text.splitlines(keepends=True):
        lines.append("| " + line.rstrip("\n"))
        if not line.endswith("\n"):
            lines.append("\\ no newline at end")
    return lines


def _transcript(commands, workdir, run):
    """The transcript of `commands`, each run by `run(argv)`, which returns
    the exit code, stdout and stderr."""
    inputs = set(os.listdir(workdir))
    lines = []
    for command in commands:
        code, out, err = run(shlex.split(command))
        lines.append(f"$ nrtcodes {command}")
        lines.append(f"exit {code}")
        lines += _block("stdout:", out)
        lines += _block("stderr:", err)
    for name in sorted(set(os.listdir(workdir)) - inputs):
        data = (workdir / name).read_bytes()
        if len(data) > INLINE_LIMIT:
            lines.append(f"file {name}: {len(data)} bytes, "
                         f"sha256 {hashlib.sha256(data).hexdigest()}")
        else:
            lines += _block(f"file {name}:", data.decode())
    return "\n".join(lines) + "\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for src in (GOLDEN / "in").iterdir():
        shutil.copy(src, tmp_path / src.name)
    monkeypatch.chdir(tmp_path)
    # argparse wraps usage and help to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_transcript(case, workdir, capsys):
    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    got = _transcript(CASES[case], workdir, in_process)
    expected = GOLDEN / "out" / f"{case}.txt"
    if os.environ.get("NRTCODES_UPDATE_GOLDEN"):
        expected.parent.mkdir(exist_ok=True)
        expected.write_text(got)
    assert got == expected.read_text()


@pytest.mark.parametrize("case", FRESH)
def test_golden_transcript_in_a_fresh_process(case, workdir):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nrtcodes.__file__))}

    def fresh_process(argv):
        result = subprocess.run([sys.executable, "-m", "nrtcodes.cli", *argv],
                                capture_output=True, cwd=workdir, env=env, timeout=120)
        return result.returncode, result.stdout.decode(), result.stderr.decode()

    got = _transcript(CASES[case], workdir, fresh_process)
    assert got == (GOLDEN / "out" / f"{case}.txt").read_text()
