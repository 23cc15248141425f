"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

    python3 -m pytest perfbench -q

Each workload runs one pass over one tiny parameter point, untraced and
traced, and must print every declared metric with its unit.  The
oracles are checked against brute force on tiny inputs.
"""

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    report = json.loads(lines[-2])["report"]
    assert report["python"] and report["numpy"] and report["nproc"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _point_file(tmp_path, q, n, s, words):
    text = [f"{q} {n} {s} {len(words)}"]
    text += [" ".join("".join(workloads.DIGITS[d] for d in row) for row in w) for w in words]
    path = tmp_path / "p.points"
    path.write_text("\n".join(text) + "\n")
    return workloads.PointFile(path)


def test_discrepancy_oracle_matches_brute_force(tmp_path):
    q, n, s = 2, 2, 2
    rng = np.random.default_rng(0)
    words = rng.integers(0, q, size=(5, n, s)).tolist()
    pf = _point_file(tmp_path, q, n, s, words)
    pts = [tuple(Fraction(int("".join(map(str, row)), q), q ** s) for row in w)
           for w in words]
    # corners on a grid finer than the points' own, so no sup is missed
    grid = [Fraction(i, 4 * q ** s) for i in range(4 * q ** s + 1)]
    best = Fraction(0)
    for y in itertools.product(grid, repeat=n):
        inside = sum(all(x < c for x, c in zip(p, y)) for p in pts)
        best = max(best, abs(Fraction(inside, len(pts)) - y[0] * y[1]))
    # a half-open box's count jumps just above each coordinate: take the
    # limit by also counting points with x <= c at every corner
    for y in itertools.product(grid, repeat=n):
        closed = sum(all(x <= c for x, c in zip(p, y)) for p in pts)
        best = max(best, abs(Fraction(closed, len(pts)) - y[0] * y[1]))
    assert workloads.star_discrepancy(pf) == best


def test_first_bad_box_finds_a_doubled_point(tmp_path):
    q, n, s = 2, 2, 1
    pf = _point_file(tmp_path, q, n, s, [[[0], [0]], [[1], [0]], [[0], [1]], [[1], [1]]])
    assert workloads.first_bad_box(pf.eta, q, 2, 1) is None
    pf = _point_file(tmp_path, q, n, s, [[[0], [0]], [[0], [0]], [[0], [1]], [[1], [1]]])
    assert workloads.first_bad_box(pf.eta, q, 2, 1) == ([1, 1], [0, 0], 2)


def test_layer_metrics_take_self_time_and_parent_counts():
    tracer = tracing.Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, -1],
                    ["codes.LinearCode.min_weight", 1.0, 5.0, 0],
                    ["codes.parity_nrt_weight", 1.5, 4.5, 1],
                    ["codes.rank", 2.0, 3.0, 2],
                    ["codes.rank", 6.0, 7.0, 0]]
    tracer.add("codes.rref_rows_in", 8)
    tracer.add("codes.rref_rows_out", 2)
    metrics = tracing.layer_metrics(tracer.dump())
    assert metrics["cli.self_s"] == 10.0 - 4.0 - 1.0
    assert metrics["codes.min_weight_s"] == (4.0 - 3.0) + (3.0 - 1.0)
    assert metrics["codes.rref_s"] == 2.0
    assert metrics["codes.min_weight_parity_calls"] == 1
    assert metrics["codes.rank_checks"] == 1
    assert metrics["codes.rref_useful_ratio"] == 0.25


def test_reference_job_checks_its_own_output(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "reference.py"), str(tmp_path / "r.txt")],
                         capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert len((tmp_path / "r.txt").read_text().splitlines()) == 3000
