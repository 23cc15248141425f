#!/usr/bin/env python3
"""End-to-end benchmark of the nrtcodes command line and library.

    python3 perfbench/run.py --workload points-large --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  Each run copies `src/nrtcodes` into a
fresh work directory (`.perfbench_work/`, removed at exit), sets up the
workload's inputs from the seed, then repeats whole passes of the workload
for about `--seconds` seconds, setting up again between the first passes.
Every operation's exit code and report are checked against an oracle;
failures are counted, never dropped or retried.  End-to-end times are
scaled to a nominal host speed measured by a reference job run between
operations (see reference.py); the report line keeps the unscaled run time.

Load: a closed loop with one client.  This process runs the operations one
after another and starts no threads; each CLI command is a subprocess, the
sweep runs each pass in SWEEP_CHUNKS fresh subprocesses.

With `--trace 0` the metrics are end to end and untraced.  With `--trace 1`
the passes run in-process, once untraced and once with every library
boundary wrapped (see tracing.py), and the metrics are per-layer self
times and work counts.  The last line of stdout is one JSON object; the
line before it is a report with the versions, sample counts and the
per-command-family sums of the run.
"""

from __future__ import annotations

import os

# one client and no threads: keep numpy's BLAS pools, here and in every
# child, to a single thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
MIN_PASSES = 2
OP_TIMEOUT = 150
STARTUP_PROBES = 5
# Median seconds of one reference.py job on the host the bounds were set
# on (2 vCPUs of a shared x86-64 host, Python 3.11, numpy 2.4).  Every
# end-to-end time is scaled to the host speed at which the job takes REF_S.
REF_S = 0.2
# The untraced sweep runs each pass in this many fresh processes, so that
# reference jobs run every second or so, as they do between commands.  A
# process takes every SWEEP_CHUNKS-th case, so the eight slow certificate
# cases, about a quarter of the sweep's time, are scaled by different
# jobs.
SWEEP_CHUNKS = 4

# name -> unit; the set BENCHMARK.json declares
END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {"trace.overhead_ratio": "ratio", "cli.startup_s": "s",
                   "codes.rref_useful_ratio": "ratio",
                   "words.bytes_written": "bytes", "words.bytes_read": "bytes"}
LAYERS = [*tracing.SELF_TIME, *tracing.SPAN_COUNTS, *tracing.COUNTS,
          "codes.rref_useful_ratio"]
PER_LAYER = {name: PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
             for name in [*LAYERS, "cli.startup_s", "trace.overhead_ratio"]}


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def spawn(cmd, cwd, env, out_path: Path, timeout=OP_TIMEOUT):
    """Run one child to completion; returns (exit code, wall seconds, max
    RSS in MB).  The child is reaped with os.wait4, so its own max RSS is
    read, not the running maximum over all children."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _payload(text: str):
    lines = text.strip().splitlines()
    try:
        value = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


class Runner:
    def __init__(self, args):
        self.args = args
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.indir = self.work / "in"
        self.rundir = self.work / "run"
        self.logdir = self.work / "log"
        self.build = None
        self.wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                     self.indir, self.rundir)
        self.steps = self.wl.steps()
        self.by_id = {s["id"]: s for s in self.steps}
        self.hashes = None
        self.setup_times = []
        self.ref_times = []
        self.attempted = 0
        self.failures = []
        self.counter = 0

    def env(self) -> dict:
        env = dict(os.environ, PYTHONPATH=str(self.build / "src"))
        env.pop("PYTHONPYCACHEPREFIX", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env

    def log_path(self, stem: str) -> Path:
        self.counter += 1
        return self.logdir / f"{self.counter:05d}-{stem}.out"

    def child(self, mode: str, spec: dict):
        spec_path = self.log_path(f"{mode}-spec").with_suffix(".json")
        result_path = spec_path.with_name(spec_path.stem + "-result.json")
        spec_path.write_text(json.dumps(spec))
        rc, seconds, rss = spawn([sys.executable, str(HERE / "child.py"), mode,
                                  str(spec_path), str(result_path)],
                                 self.work, self.env(), self.log_path(mode))
        result = json.loads(result_path.read_text()) if rc == 0 else None
        return result, seconds, rss

    # --- set-up: copy the sources, compile on first import, write inputs ---

    def setup(self) -> None:
        """One whole set-up, timed into self.setup_times."""
        for path in (self.indir, self.rundir, self.logdir):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
        if self.build is not None:
            shutil.rmtree(self.build)
        self.build = self.work / f"build{len(self.setup_times)}"
        t0 = time.perf_counter()
        shutil.copytree(ROOT / "src" / "nrtcodes", self.build / "src" / "nrtcodes",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result, _, _ = self.child("setup", {"cwd": str(self.indir),
                                            "files": self.wl.setup_files()})
        if result is None:
            raise RuntimeError(f"set-up failed; see {self.logdir}")
        self.wl.write_inputs()
        self.setup_times.append(time.perf_counter() - t0)

    def reference(self) -> float:
        """Seconds of one reference job (reference.py)."""
        rc, seconds, _ = spawn([sys.executable, str(HERE / "reference.py"),
                                str(self.work / "reference.txt")],
                               self.work, self.env(), self.log_path("reference"))
        if rc != 0:
            raise RuntimeError(f"reference job failed; see {self.logdir}")
        self.ref_times.append(seconds)
        return seconds

    # --- one pass ---

    def cli_pass(self):
        """Every step of the pass, CLI steps as subprocesses, with a
        reference job before the first command and after each one.  Each
        command's "ref" is the geometric mean of the two around it; the
        pass's wall time leaves the reference jobs out."""
        ops = []
        before = self.reference()
        t0 = time.perf_counter()
        ref_s = 0.0
        for step in self.steps:
            if step["op"] == "bench":
                workloads.run_bench_step(step)
                continue
            out_path = self.log_path(step["id"])
            rc, seconds, rss = spawn([sys.executable, "-m", "nrtcodes.cli", *step["argv"]],
                                     self.rundir, self.env(), out_path)
            after = self.reference()
            ref_s += after
            ops.append({"id": step["id"], "rc": rc, "seconds": seconds, "rss": rss,
                        "ref": (before * after) ** 0.5,
                        "stdout": out_path.read_text(errors="replace")})
            before = after
        return time.perf_counter() - t0 - ref_s, ops

    def sweep_pass(self):
        """The sweep's cases in SWEEP_CHUNKS fresh processes, with a
        reference job before the first and after each, as in cli_pass;
        returns (wall, ops, largest max RSS)."""
        wall, ops, rss = 0.0, [], 0.0
        before = self.reference()
        for i in range(SWEEP_CHUNKS):
            seconds, _, chunk, chunk_rss, _, _ = self.inproc_pass(
                trace=False, steps=self.steps[i::SWEEP_CHUNKS])
            after = self.reference()
            for op in chunk:
                op["ref"] = (before * after) ** 0.5
            wall, rss, before = wall + seconds, max(rss, chunk_rss), after
            ops += chunk
        return wall, ops, rss

    def inproc_pass(self, trace: bool, probe: bool = False, steps=None):
        """The steps (all by default) in one fresh process; returns (wall,
        inner, ops, rss, trace dump or None, traced targets the package
        lacks)."""
        steps = self.steps if steps is None else steps
        spec = {"cwd": str(self.rundir), "steps": steps, "trace": trace,
                "probe": probe}
        result, seconds, rss = self.child("pass", spec)
        if result is None:
            ops = [{"id": s["id"], "rc": -1, "seconds": 0.0, "stdout": ""}
                   for s in steps if s["op"] != "bench"]
            return seconds, seconds, ops, rss, None, []
        return (seconds, result["pass_s"], result["ops"], rss,
                result.get("trace"), result.get("missing") or [])

    def check(self, ops) -> None:
        """Oracle of every operation of one pass; the written files are
        recounted after the first pass and must not change after it."""
        outputs = self.wl.outputs()
        if self.hashes is None:
            file_bad = self.wl.check_files()
            self.hashes = {sid: self._sha256(name) for sid, name in outputs.items()}
        else:
            file_bad = {sid: f"{name} differs from the first pass"
                        for sid, name in outputs.items()
                        if self._sha256(name) != self.hashes[sid]}
        for op in ops:
            self.attempted += 1
            step = self.by_id[op["id"]]
            reason = file_bad.get(op["id"]) or self.wl.check(
                step, op["rc"], _payload(op["stdout"]) if step["op"] == "cli" else None)
            if reason:
                self.failures.append(f"{op['id']}: {reason}")

    def _sha256(self, name):
        path = self.rundir / name
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None

    def passes(self, one_pass):
        """Repeat passes while the next one still fits in --seconds.

        The first set-up runs before the passes and the others between
        them: set-ups run back to back see the same few seconds of a
        shared host, so their median would move with its load.  A set-up
        rebuilds the same inputs from the seed and leaves the pass outputs
        to the next pass, whose files are still checked against the
        first pass's."""
        self.setup()
        self.wl.prepare()
        out = []
        start = time.perf_counter()
        while True:
            out.append(one_pass())
            if self.args.smoke:
                break
            elapsed = time.perf_counter() - start
            if len(out) >= MIN_PASSES and elapsed + elapsed / len(out) > self.args.seconds:
                break
            if len(self.setup_times) < SETUP_REPS:
                self.setup()
        while len(self.setup_times) < SETUP_REPS:
            self.setup()
        return out

    # --- the two kinds of run ---

    def end_to_end(self):
        def one_pass():
            if self.wl.name == "sweep":
                wall, ops, rss = self.sweep_pass()
            else:
                wall, ops = self.cli_pass()
                rss = max(op["rss"] for op in ops)
            self.check(ops)
            return wall, ops, rss

        runs = self.passes(one_pass)
        # Every time is scaled to the host speed at which the reference job
        # takes REF_S: an operation's by the jobs run around it, set-up and
        # pass overhead by the run's median job.  run_s adds up each
        # operation's median over the passes, so a burst of outside load
        # during one operation does not move it.
        ref_s = statistics.median(self.ref_times)
        scale = REF_S / ref_s
        per_op, unscaled_op = {}, {}
        for _, ops, _ in runs:
            for op in ops:
                per_op.setdefault(op["id"], []).append(op["seconds"] * REF_S / op["ref"])
                unscaled_op.setdefault(op["id"], []).append(op["seconds"])
        op_s = {sid: statistics.median(v) for sid, v in per_op.items()}
        samples_ms = sorted(t * 1e3 for v in per_op.values() for t in v)
        work_s = sum(op_s.values())
        overhead_s = scale * statistics.median(wall - sum(op["seconds"] for op in ops)
                                               for wall, ops, _ in runs)
        unscaled_s = sum(map(statistics.median, unscaled_op.values())) + overhead_s / scale
        metrics = {
            "setup_s": scale * statistics.median(self.setup_times),
            "run_s": overhead_s + work_s,
            "op_p50_ms": 1e3 * statistics.median(op_s.values()),
            "ops_per_s": len(op_s) / work_s if work_s else 0.0,
            "peak_rss_mb": statistics.median(rss for _, _, rss in runs),
            "ok_ratio": (self.attempted - len(self.failures)) / self.attempted,
        }
        p90 = _quantile(samples_ms, 90)
        report = {"passes": len(runs), "ops_per_pass": len(op_s),
                  "ref_median_s": ref_s, "ref_samples": len(self.ref_times),
                  "run_s_unscaled": unscaled_s,
                  "op_samples": len(samples_ms), "op_p90_ms": p90,
                  "op_p90_samples_above": sum(v > p90 for v in samples_ms),
                  "pass_wall_s": [wall for wall, _, _ in runs],
                  "setup_samples": len(self.setup_times),
                  "fail_ratio": len(self.failures) / self.attempted}
        if self.wl.name != "sweep":
            report["op_median_ms"] = {sid: v * 1e3 for sid, v in sorted(op_s.items())}
            report["op_pass_ms"] = {sid: [t * 1e3 for t in v] for sid, v in sorted(per_op.items())}
        for family in self.wl.families:
            report[f"{family}_s"] = sum(v for sid, v in op_s.items()
                                        if self.by_id[sid]["family"] == family)
        if self.wl.name == "sweep":
            kinds = {}
            for sid, v in op_s.items():
                kind = self.by_id[sid]["case"][0]
                kinds[kind] = kinds.get(kind, 0.0) + v
            report["case_kind_s"] = kinds
            report["cases_per_s"] = metrics["ops_per_s"]
            report["case_p50_ms"] = metrics["op_p50_ms"]
            report["case_p95_ms"] = _quantile(samples_ms, 95)
            report["case_p95_samples_above"] = sum(v > report["case_p95_ms"]
                                                   for v in samples_ms)
        return metrics, report

    def traced(self):
        missing = []

        def one_pass():
            plain = self.inproc_pass(trace=False, probe=True)
            traced = self.inproc_pass(trace=True, probe=True)
            for result in (plain, traced):
                self.check(result[2])
            missing[:] = traced[5]
            layers = tracing.layer_metrics(traced[4]) if traced[4] else None
            return plain[1], traced[1], layers

        runs = self.passes(one_pass)
        startup = []
        for _ in range(STARTUP_PROBES):
            rc, seconds, _ = spawn([sys.executable, "-m", "nrtcodes.cli", "field-info",
                                    "--q", "2"], self.rundir, self.env(),
                                   self.log_path("startup"))
            self.attempted += 1
            if rc != 0:
                self.failures.append(f"field-info: exit {rc}")
            startup.append(seconds)
        layered = [layers for _, _, layers in runs if layers is not None]
        metrics = {name: statistics.median(layers[name] for layers in layered)
                   if layered else 0.0 for name in LAYERS}
        metrics["cli.startup_s"] = statistics.median(startup)
        metrics["trace.overhead_ratio"] = (statistics.median(t for _, t, _ in runs)
                                           / statistics.median(p for p, _, _ in runs))
        report = {"passes": len(runs), "traced_samples": len(layered),
                  "startup_samples": len(startup), "missing_targets": missing,
                  "setup_samples": len(self.setup_times)}
        return metrics, report


def _quantile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over one tiny parameter point per step")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nrtcodes" / "__init__.py").is_file():
        print(f"error: no nrtcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(args)
    try:
        if args.trace:
            metrics, report = runner.traced()
            units = PER_LAYER
        else:
            metrics, report = runner.end_to_end()
            units = END_TO_END
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        if runner.work.parent.is_dir() and not any(runner.work.parent.iterdir()):
            runner.work.parent.rmdir()
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version.split()[0],
                  numpy=np.__version__, nproc=os.cpu_count(),
                  setup_times_s=runner.setup_times, failures=runner.failures[:20])
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
