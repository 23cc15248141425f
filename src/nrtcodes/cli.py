"""Command-line front end: generation, verification, spectra, duality,
digit-block transforms, base change, and discrepancy, over the text file
formats of the library.

Exit codes: 0 success / verified, 1 a verification answered "no",
2 usage, parse or resource errors and internal faults, reported on stderr,
or under --format json as one {"schema": 1, "error": ...} object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .codes import (LinearCode, corner_box_counts, is_mds, macwilliams_n1_ok,
                    read_code, write_code)
from .construct import build_mds_code, build_optimum_distribution, default_nodes
from .geometry import net_report, optimum_report, star_discrepancy
from .gf import GF, TABLE_BOUND, is_prime
from .poly import INF
from .spectra import distance_spectrum, mds_spectrum, nets_exist
from .words import (Distribution, PointFileError, Space, read_point_set,
                    write_point_set)
from . import peano

SCHEMA = 1


class UsageError(Exception):
    pass


def _field_from_args(args) -> GF:
    if args.p is not None:
        return GF(args.p, args.e)
    if args.q is None:
        raise UsageError("need --q or --p/--e")
    q = args.q
    if q > TABLE_BOUND:  # refused before the prime-power search
        raise UsageError(f"q = {q} exceeds the field bound {TABLE_BOUND}")
    for p in range(2, q + 1):
        if is_prime(p):
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m == 1:
                return GF(p, e)
            if q % p == 0:
                break
    raise UsageError(f"q = {q} is not a prime power")


def _parse_nodes(gf: GF, text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append(INF if tok == "inf" else gf.check(int(tok)))
    return tuple(out)


def _nodes_text(nodes) -> str:
    return ",".join("inf" if b == INF else str(b) for b in nodes)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_points(path: str) -> Distribution:
    with open(path) as fh:
        return read_point_set(fh)


def _read_code(path: str) -> LinearCode:
    with open(path) as fh:
        return read_code(fh)


@contextmanager
def _output(path: str):
    """A stream whose contents replace `path` only if the block succeeds;
    it writes to a temporary file in the same directory meanwhile."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cmd_generate(args) -> int:
    gf = _field_from_args(args)
    if args.g > 1:
        return _generate_composite(args, gf)
    n, s, k = args.n, args.s, args.k
    if n is None or s is None or k is None:
        raise UsageError("generate needs --n, --s and --k")
    if not nets_exist(n, gf.q):
        raise UsageError(f"q = {gf.q} < n - 1 = {n - 1}: no such distributions exist "
                         f"(the spectrum entry above the minimum weight would be negative)")
    if not 1 <= k <= n * s:
        raise UsageError("need 1 <= k <= n*s")
    space = Space(gf, n, s)
    nodes = _parse_nodes(gf, args.nodes) if args.nodes else default_nodes(gf, n)
    code = build_mds_code(space, k, nodes=nodes)
    dist = build_optimum_distribution(space, k, nodes=nodes)
    comments = [f"nodes {_nodes_text(nodes)}"]
    out = args.out or "out"
    with _output(f"{out}.points") as fh:
        write_point_set(fh, dist, comments=comments)
    with _output(f"{out}.code") as fh:
        write_code(fh, code, comments=comments)
    mds = is_mds(code)
    opt = optimum_report(dist, k).ok
    payload = {
        "q": gf.q, "n": n, "s": s, "k": k,
        "field": gf.describe(),
        "nodes": _nodes_text(nodes),
        "mds_verified": mds, "optimum_verified": opt,
        "points_file": f"{out}.points", "code_file": f"{out}.code",
    }
    _emit(args, payload, [
        f"wrote {out}.points ({len(dist)} points) and {out}.code",
        f"MDS verified: {mds}",
        f"optimum verified: {opt}",
    ])
    return 0 if (mds and opt) else 1


def _generate_composite(args, gf) -> int:
    """generate --g G --t T: the merged-block construction with k = s*t,
    large in both metrics along with its dual."""
    n, s, t, g = args.n, args.s, args.t, args.g
    if n is None or s is None or t is None:
        raise UsageError("composite generation needs --n, --s and --t")
    if args.k is not None:
        raise UsageError("--k is determined by --t in composite mode (k = s*t)")
    if gf.q < g * n - 1:
        raise UsageError(f"q = {gf.q} < g*n - 1 = {g * n - 1}: not enough "
                         f"evaluation nodes")
    nodes = _parse_nodes(gf, args.nodes) if args.nodes else default_nodes(gf, g * n)
    build = peano.build_composite(gf, g, n, s, t, nodes=nodes)
    out = args.out or "out"
    comments = [f"nodes {_nodes_text(nodes)}", f"merged g={g} t={t}"]
    with _output(f"{out}.points") as fh:
        write_point_set(fh, build.dist, comments=comments)
    with _output(f"{out}.code") as fh:
        write_code(fh, build.code, comments=comments)
    k = s * t
    dual = build.code.dual()
    weights = {
        "nrt": build.code.min_weight("nrt"),
        "hamming": build.code.min_weight("hamming"),
        "dual_nrt": dual.min_weight("nrt"),
        "dual_hamming": dual.min_weight("hamming"),
    }
    bounds_ok = (weights["nrt"] == (n * s - k) * g + 1
                 and weights["hamming"] >= (n - t) * g + 1
                 and weights["dual_nrt"] == k * g + 1
                 and weights["dual_hamming"] >= t * g + 1)
    opt = optimum_report(build.dist, g * k).ok
    payload = {
        "q": gf.q, "n": n, "s": s, "g": g, "t": t, "k": g * k,
        "field": gf.describe(), "nodes": _nodes_text(nodes),
        "weights": weights, "weight_relations_ok": bounds_ok,
        "optimum_verified": opt,
        "points_file": f"{out}.points", "code_file": f"{out}.code",
    }
    _emit(args, payload, [
        f"wrote {out}.points ({len(build.dist)} points) and {out}.code",
        f"weights: {weights}",
        f"weight relations verified: {bounds_ok}",
        f"optimum verified: {opt}",
    ])
    return 0 if (bounds_ok and opt) else 1


def cmd_verify(args) -> int:
    kind = args.kind
    if kind == "mds":
        code = _read_code(getattr(args, "in"))
        weight = code.min_weight("nrt")
        bound = code.space.dim - code.k + 1  # an MDS code meets it
        ok = weight == bound
        payload = {"kind": "mds", "ok": ok, "weight": weight, "bound": bound}
        _emit(args, payload, [f"MDS: {ok} (weight {weight}, bound {bound})"])
        return 0 if ok else 1
    dist = _read_points(getattr(args, "in"))
    if kind == "net":
        delta = args.delta if args.delta is not None else 0
        report = net_report(dist, delta)
    else:
        space = dist.space
        k = args.k
        if k is None:
            k = 0
            while space.q ** k < len(dist):
                k += 1
        report = optimum_report(dist, k)
    payload = {"kind": kind, "ok": report.ok}
    lines = [f"{kind}: {report.ok}"]
    if not report.ok:
        payload["counterexample"] = {
            "a": list(report.box.a), "m": list(report.box.m),
            "count": report.count, "expected": report.expected,
        }
        lines.append(f"first failing box: sides {report.box.a} positions "
                     f"{report.box.m} holds {report.count}, expected {report.expected}")
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_spectrum(args) -> int:
    import numpy as np

    from . import bulk

    dist = _read_points(getattr(args, "in"))
    if not len(dist):
        raise ValueError("point set is empty")
    space = dist.space
    flat = dist.array().reshape(len(dist), -1)
    anchor = space.zero() if (~flat.any(axis=1)).any() else dist.word(0)
    spec = distance_spectrum(dist, anchor)
    q = space.q
    k = 0
    while q ** k < len(dist):
        k += 1
    payload = {
        "params": {"q": q, "n": space.n, "s": space.s},
        "anchor": [list(r) for r in anchor],
        "w": spec,
        "source": "bruteforce",
    }
    lines = [f"bruteforce spectrum: {spec}"]
    # more than q^(ns) points (k > ns) repeat one, so cannot be optimum
    if q ** k == len(dist) and k <= space.dim and optimum_report(dist, k).ok:
        formula = mds_spectrum(space.n, space.s, k, q)
        payload["formula"] = formula
        payload["formula_matches"] = formula == spec
        lines.append(f"closed-form spectrum: {formula}")
        lines.append(f"formula matches: {formula == spec}")
    else:
        payload["warning"] = "input is not an optimum distribution; closed forms omitted"
        lines.append("warning: not an optimum distribution, closed forms omitted")
    # the enumerators describe the input only when it is its own span, of
    # q^rank words: it lies in it, so iff it has q^rank distinct points
    code = LinearCode(space, bulk.row_basis(space.gf, flat))
    if len(code) == len(dist) == len(np.unique(flat, axis=0)):
        # a linear set holds zero, the anchor of its spectrum
        payload["weight_enumerator"] = spec
        payload["box_enumerator"] = {
            ",".join(map(str, a)): c
            for a, c in sorted(corner_box_counts(dist).items())
        }
        if space.n == 1:
            ok = macwilliams_n1_ok(dist, code.dual().distribution())
            payload["macwilliams_n1"] = ok
            lines.append(f"n=1 MacWilliams identity: {ok}")
    _emit(args, payload, lines)
    return 0


def cmd_dual(args) -> int:
    code = _read_code(getattr(args, "in"))
    dual = code.dual()
    if args.out:
        with _output(args.out) as fh:
            write_code(fh, dual)
    payload = {
        "k": code.k, "dual_k": dual.k,
        "weight": code.min_weight("nrt") if code.k else None,
        "dual_weight": dual.min_weight("nrt") if dual.k else None,
    }
    _emit(args, payload, [
        f"code [{code.space.dim},{code.k}] weight {payload['weight']}",
        f"dual [{dual.space.dim},{dual.k}] weight {payload['dual_weight']}",
    ])
    return 0


def cmd_peano(args) -> int:
    g = args.g
    if args.type == "code":
        code = _read_code(getattr(args, "in"))
        if code.space.n % g:
            raise UsageError("--g must divide n")
        merged = peano.merge_code(code, g)
        if args.out:
            with _output(args.out) as fh:
                write_code(fh, merged)
        w_before = code.min_weight("nrt") if code.k else None
        w_after = merged.min_weight("nrt") if merged.k else None
        payload = {"g": g, "weight_before": w_before, "weight_after": w_after,
                   "n": merged.space.n, "s": merged.space.s}
        _emit(args, payload, [
            f"merged to [{merged.space.dim},{merged.k}]_{merged.space.s}",
            f"NRT weight {w_before} -> {w_after}",
        ])
    else:
        dist = _read_points(getattr(args, "in"))
        if dist.space.n % g:
            raise UsageError("--g must divide n")
        merged = peano.merge_distribution(dist, g)
        if args.out:
            with _output(args.out) as fh:
                write_point_set(fh, merged)
        payload = {"g": g, "n": merged.space.n, "s": merged.space.s,
                   "points": len(merged)}
        _emit(args, payload, [f"merged {len(merged)} points into "
                              f"Q^{merged.space.n}(q^{merged.space.s})"])
    return 0


def cmd_basechange(args) -> int:
    dist = _read_points(getattr(args, "in"))
    rep = peano.distribution_base_change_weights(dist)
    reduced = dist.to_base_p()
    if args.out:
        with _output(args.out) as fh:
            write_point_set(fh, reduced)
    payload = {
        "p": dist.space.gf.p, "e": dist.space.gf.e,
        "nrt_q": rep.nrt_q, "nrt_p": rep.nrt_p,
        "hamming_q": rep.hamming_q, "hamming_p": rep.hamming_p,
        "bounds_ok": rep.bounds_ok,
    }
    _emit(args, payload, [
        f"NRT weight: base q {rep.nrt_q}, base p {rep.nrt_p}",
        f"Hamming weight: base q {rep.hamming_q}, base p {rep.hamming_p}",
        f"expansion bounds hold: {rep.bounds_ok}",
    ])
    return 0 if rep.bounds_ok else 1


def cmd_discrepancy(args) -> int:
    dist = _read_points(getattr(args, "in"))
    value = star_discrepancy(dist)
    payload = {"discrepancy": str(value),
               "numerator": value.numerator, "denominator": value.denominator}
    _emit(args, payload, [str(value)])
    return 0


def cmd_field_info(args) -> int:
    gf = _field_from_args(args)
    payload = {
        "p": gf.p, "e": gf.e, "q": gf.q,
        "modulus": list(gf.modulus),
        "description": gf.describe(),
    }
    lines = [
        f"q = {gf.q} = {gf.p}^{gf.e}",
        f"modulus coefficients (constant first): {' '.join(map(str, gf.modulus))}",
        f"header form: {gf.describe()}",
    ]
    if gf.e > 1 and gf.q <= 64:
        payload["coordinates"] = {str(a): list(gf.coeffs(a)) for a in gf.elements()}
        lines.append("label -> base-p coordinates:")
        for a in gf.elements():
            lines.append(f"  {a} -> {gf.coeffs(a)}")
    _emit(args, payload, lines)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrtcodes",
        description="MDS codes in the NRT metric, optimum distributions and nets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, infile=False):
        p.add_argument("--p", type=int, help="field characteristic")
        p.add_argument("--e", type=_positive_int, default=1, help="extension degree")
        p.add_argument("--q", type=int, help="field size (prime power)")
        p.add_argument("--n", type=int, help="number of dimensions / rows")
        p.add_argument("--s", type=int, help="digits per coordinate")
        p.add_argument("--k", type=int, help="code / distribution dimension")
        p.add_argument("--g", type=_positive_int, default=1, help="row block size")
        p.add_argument("--t", type=int, help="composite dimension multiplier")
        p.add_argument("--delta", type=int, help="net deficiency")
        p.add_argument("--nodes", help="comma separated node labels, inf allowed")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if infile:
            p.add_argument("--in", required=True, help="input file")
        p.add_argument("--out", help="output file or prefix")

    common(sub.add_parser("generate", help="build an MDS code + optimum distribution"))
    p = sub.add_parser("verify", help="verify a net / optimum / MDS property")
    common(p, infile=True)
    p.add_argument("--kind", choices=("net", "optimum", "mds"), required=True)
    common(sub.add_parser("spectrum", help="weight spectra of a point set"),
           infile=True)
    common(sub.add_parser("dual", help="dual of a linear code"), infile=True)
    p = sub.add_parser("peano", help="merge row blocks (gn,s) -> (n,gs)")
    common(p, infile=True)
    p.add_argument("--type", choices=("code", "points"), default="code")
    common(sub.add_parser("basechange", help="re-express base p^e in base p"),
           infile=True)
    common(sub.add_parser("discrepancy", help="exact star discrepancy"),
           infile=True)
    common(sub.add_parser("field-info", help="describe the field tables"))
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "dual": cmd_dual,
    "peano": cmd_peano,
    "basechange": cmd_basechange,
    "discrepancy": cmd_discrepancy,
    "field-info": cmd_field_info,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        error = {"error": str(exc)}
        if isinstance(exc, PointFileError):
            error["line"] = exc.line
    except Exception as exc:  # a fault of the program, still never a traceback
        error = {"error": f"internal: {type(exc).__name__}: {exc}"}
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **error}, sort_keys=True))
    else:
        print(f"error: {error['error']}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
