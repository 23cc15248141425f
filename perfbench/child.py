"""Runs benchmark work inside one fresh Python process that imports the
nrtcodes copy on PYTHONPATH.

    python3 perfbench/child.py setup <spec.json> <result.json>
    python3 perfbench/child.py pass <spec.json> <result.json>

`setup` is the first import (bytecode compile) plus the point and code
files a workload reads.  `pass` runs the steps of one pass in-process:
CLI steps through nrtcodes.cli.main(argv), sweep cases through the
library, bench steps through the benchmark's own code.  With "trace" set
in the spec every library boundary records spans, written to the result
file once the pass has ended.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import tracing
import workloads


def setup(spec: dict) -> dict:
    import nrtcodes.cli  # noqa: F401  compiles every module the command line uses
    from nrtcodes import codes, construct, gf, poly, words

    for f in spec["files"]:
        space = words.Space(gf.GF(*workloads.prime_power(f["q"])), f["n"], f["s"])
        nodes = [poly.INF if b == "inf" else b for b in f["nodes"]]
        dist = construct.build_optimum_distribution(space, f["k"], nodes=nodes)
        code = construct.build_mds_code(space, f["k"], nodes=nodes)
        with open(f["out"] + ".points", "w") as fh:
            words.write_point_set(fh, dist)
        with open(f["out"] + ".code", "w") as fh:
            codes.write_code(fh, code)
    return {}


def run_cli(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = tracer.call("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback exits 1 from the command line
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def sweep_case(case) -> bool:
    """One library pipeline; True when every result matches its oracle."""
    from nrtcodes import codes, construct, geometry, gf, spectra, words

    kind, q, n, s, k = case[:5]
    space = words.Space(gf.GF(*workloads.prime_power(q)), n, s)
    if kind == "grid":
        code = construct.build_mds_code(space, k)
        dist = construct.build_optimum_distribution(space, k)
        ok = codes.is_mds(code) and geometry.optimum_report(dist, k).ok
        dual = code.dual()
        if dual.k:
            ok = ok and dual.min_weight("nrt", method="parity") == k + 1
        return ok and (spectra.distance_spectrum(dist, space.zero())
                       == spectra.mds_spectrum(n, s, k, q))
    if kind == "mds":
        return codes.is_mds(construct.build_mds_code(space, k)) is True
    return codes.is_mds(codes.LinearCode(space, case[5])) is False


def probe(tracer) -> list[str]:
    """Calls every traced layer once on a tiny input (q = 4, n = 2, s = 2),
    so that no layer metric of a traced pass is an unmeasured 0.  Returns
    the calls the package no longer supports."""
    from nrtcodes import cli, codes, construct, geometry, gf, peano, spectra, words

    field = gf.GF(2, 2)
    space = words.Space(field, 2, 2)
    code = construct.build_mds_code(space, 2)
    dist = construct.build_optimum_distribution(space, 2)
    points, code_text = io.StringIO(), io.StringIO()
    calls = {
        "write_point_set": lambda: words.write_point_set(points, dist),
        "read_point_set": lambda: words.read_point_set(io.StringIO(points.getvalue())),
        "write_code": lambda: codes.write_code(code_text, code),
        "read_code": lambda: codes.read_code(io.StringIO(code_text.getvalue())),
        "optimum_report": lambda: geometry.optimum_report(dist, 2),
        "net_report": lambda: geometry.net_report(dist, 0),
        "star_discrepancy": lambda: geometry.star_discrepancy(dist),
        "min_weight": lambda: code.min_weight("nrt"),
        "parity_weight": lambda: code.dual().min_weight("nrt", method="parity"),
        "distance_spectrum": lambda: spectra.distance_spectrum(dist, space.zero()),
        "mds_spectrum": lambda: spectra.mds_spectrum(2, 2, 2, 4),
        "weight_enumerator": lambda: codes.weight_enumerator(dist),
        "box_enumerator": lambda: codes.box_enumerator(dist),
        "merge": lambda: (peano.merge_distribution(dist, 2), peano.merge_code(code, 2)),
        "base_change": lambda: peano.distribution_base_change_weights(dist),
        "composite": lambda: peano.build_composite(field, 2, 2, 1, 1),
        "cli": lambda: run_cli(cli.main, ["field-info", "--q", "4"], tracer),
    }
    failed = []
    for name, call in calls.items():
        try:
            call()
        except Exception:  # a later version may drop a call; the rest still run
            failed.append(name)
    return failed


def run_pass(spec: dict) -> dict:
    tracer = missing = None
    from nrtcodes import cli

    if spec["trace"]:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    ops = []
    t_pass = time.perf_counter()
    for step in spec["steps"]:
        if step["op"] == "bench":
            workloads.run_bench_step(step)
            continue
        t0 = time.perf_counter()
        if step["op"] == "cli":
            rc, out, err = run_cli(cli.main, step["argv"], tracer)
        else:
            out, err = "", ""
            idx = tracer.open("bench.case") if tracer else None
            try:
                rc = 0 if sweep_case(step["case"]) else 1
            except Exception:
                rc, err = 1, traceback.format_exc()
            finally:
                if tracer:
                    tracer.close(idx)
        ops.append({"id": step["id"], "rc": rc, "seconds": time.perf_counter() - t0,
                    "stdout": out, "stderr": err[-2000:]})
    probe_failed = probe(tracer) if spec.get("probe") else []
    result = {"pass_s": time.perf_counter() - t_pass, "ops": ops}
    if tracer:
        missing += [f"probe {name}" for name in probe_failed]
        result["trace"] = tracer.dump()
        result["missing"] = missing
    return result


def main(argv) -> int:
    mode, spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.chdir(spec["cwd"])
    result = setup(spec) if mode == "setup" else run_pass(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
