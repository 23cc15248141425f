"""Command-line front end: generation, verification, spectra, duality,
digit-block transforms, base change, and discrepancy, over the text file
formats of the library.

Exit codes: 0 success / verified, 1 a verification answered "no",
2 usage, parse or resource errors (among them "out of memory"), output
failures and internal faults, reported on stderr, or under --format json
as one {"schema": 1, "error": ...} object on stdout (on stderr as text
when stdout itself fails).
Each command accepts only the options it reads (the `COMMANDS` table);
any other option is a usage error.
`main(argv)` returns the code; `run`, the process entry, flushes stdout
and stderr, then ends the process with `os._exit`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from .codes import (corner_box_counts, duality_ok, is_linear, is_mds, own_span, read_code,
                    write_code)
from .construct import build_optimum_distribution, default_nodes
from .geometry import net_report, optimum_report, star_discrepancy
from .gf import GF, TABLE_BOUND
from .poly import INF
from .spectra import distance_spectrum, mds_spectrum, nets_exist
from .words import PointFileError, Space, exponent, read_point_set, write_point_set

SCHEMA = 1


class UsageError(Exception):
    pass


class _ParseError(Exception):
    """A command line argparse refused; `main` reports it in the requested
    format."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(self, message)

    def print_help(self, file=None):
        # argparse's own writer drops write errors; print lets them surface
        print(self.format_help(), end="", file=file)


def _requested_format(argv) -> str:
    """The last --format value of a command line argparse refused, in any
    spelling argparse accepts: "--format json", "--format=json", "--fo json"."""
    fmt = "text"
    for i, arg in enumerate(argv):
        name, eq, value = arg.partition("=")
        if len(name) > 2 and "--format".startswith(name):
            if eq:
                fmt = value
            elif i + 1 < len(argv):
                fmt = argv[i + 1]
    return fmt


def _field_from_args(args) -> GF:
    """The field of --p/--e (--e 1 if omitted), else of --q; q must be p^e."""
    q = args.q
    if args.p is not None:
        gf = GF(args.p, args.e or 1)
    elif q is None:
        raise UsageError("need --q or --p/--e")
    elif q > TABLE_BOUND:  # refused before the prime-power search
        raise UsageError(f"q = {q} exceeds the field bound {TABLE_BOUND}")
    else:
        # the least divisor p >= 2 of q is prime; q is a power of it or of none
        p = next((d for d in range(2, q + 1) if q % d == 0), q)
        if q < 2 or p ** exponent(p, q) != q:
            raise UsageError(f"q = {q} is not a prime power")
        gf = GF(p, args.e or exponent(p, q))
    if q is not None and gf.q != q:
        raise UsageError(f"--q {q} is not p^e = {gf.p}^{gf.e} = {gf.q}")
    return gf


def _parse_nodes(gf: GF, text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "inf":
            out.append(INF)
            continue
        try:
            label = int(tok)
        except ValueError:
            label = -1
        if not 0 <= label < gf.q:
            raise UsageError(f"node {tok!r} is not a label 0..{gf.q - 1} or inf")
        out.append(label)
    return tuple(out)


def _nodes_text(nodes) -> str:
    return ",".join("inf" if b == INF else str(b) for b in nodes)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        import json

        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read(args, reader):
    """The --in file, parsed by `reader` from its bytes."""
    with open(getattr(args, "in"), "rb") as fh:
        return reader(fh)


def _save(path: str, write, *args, **kwargs) -> None:
    """`write(stream, *args, **kwargs)`, whose bytes replace `path` only if it
    succeeds: it writes to a temporary file in the same directory
    meanwhile.  Nothing is written when `path` is empty."""
    if not path:
        return
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh, *args, **kwargs)
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
    # the distribution first: it refuses q^k points before any row is built
    dist = build_optimum_distribution(space, k, nodes=nodes)
    comments = [f"nodes {_nodes_text(nodes)}"]
    out = args.out or "out"
    _save(f"{out}.points", write_point_set, dist, comments=comments)
    _save(f"{out}.code", write_code, dist.code(), comments=comments)
    # the code's words are the points, so one certificate (`is_mds` of the
    # set's held code, inside `optimum_report`) answers both
    ok = optimum_report(dist, k).ok
    payload = {
        "q": gf.q, "n": n, "s": s, "k": k,
        "field": gf.describe(),
        "nodes": _nodes_text(nodes),
        "mds_verified": ok, "optimum_verified": ok,
        "points_file": f"{out}.points", "code_file": f"{out}.code",
    }
    _emit(args, payload, [
        f"wrote {out}.points ({len(dist)} points) and {out}.code",
        f"MDS verified: {ok}",
        f"optimum verified: {ok}",
    ])
    return 0 if ok else 1


def _generate_composite(args, gf) -> int:
    """generate --g G --t T: the merged-block construction with k = s*t,
    large in both metrics along with its dual."""
    from . import peano

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
    k = s * t
    dual = build.code.dual()
    # the merged set is optimum iff its code is MDS, iff the dual is: then
    # both NRT weights meet their bounds, and only a "no" counts them
    opt = optimum_report(build.dist, g * k).ok
    nrt_bound, dual_nrt_bound = (n * s - k) * g + 1, k * g + 1
    weights = {
        "nrt": nrt_bound if opt else build.code.min_weight("nrt"),
        "hamming": build.code.min_weight("hamming"),
        "dual_nrt": dual_nrt_bound if opt else dual.min_weight("nrt"),
        "dual_hamming": dual.min_weight("hamming"),
    }
    bounds_ok = (weights["nrt"] == nrt_bound
                 and weights["hamming"] >= (n - t) * g + 1
                 and weights["dual_nrt"] == dual_nrt_bound
                 and weights["dual_hamming"] >= t * g + 1)
    # written only once every check has an answer, so a refusal leaves no file
    comments = [f"nodes {_nodes_text(nodes)}", f"merged g={g} t={t}"]
    _save(f"{out}.points", write_point_set, build.dist, comments=comments)
    _save(f"{out}.code", write_code, build.code, comments=comments)
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
        code = _read(args, read_code)
        bound = code.space.dim - code.k + 1  # an MDS code meets it
        # the certificate proves a yes; only a "no" counts the weight
        ok = is_mds(code)
        weight = bound if ok else code.min_weight("nrt")
        payload = {"kind": "mds", "ok": ok, "weight": weight, "bound": bound}
        _emit(args, payload, [f"MDS: {ok} (weight {weight}, bound {bound})"])
        return 0 if ok else 1
    dist = _read(args, read_point_set)
    # a file that is its own span or coset takes the rank certificate
    span = own_span(dist)
    dist = dist if span is None else span
    if kind == "net":
        report = net_report(dist, args.delta if args.delta is not None else 0)
    else:
        k = args.k if args.k is not None else exponent(dist.space.q, len(dist))
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
    """The distances from a point of the file: from zero, and with the
    enumerators, if the file is linear; else from its first point, or from
    zero if zero is one of its points.  A file that is its own span or
    coset (`codes.own_span`) is linear iff its offset lies in the span of
    its rows (`codes.is_linear`); else no point is zero, so its anchor is
    its offset, read without its array."""
    dist = _read(args, read_point_set)
    if not len(dist):
        raise ValueError("point set is empty")
    space = dist.space
    span = own_span(dist)
    linear = span is not None and is_linear(span)
    if span is not None:
        # the proven set carries its basis, so the routes of built sets answer
        dist = span
        anchor = space.zero() if linear else space.unflatten(span.offset)
    else:
        anchor = dist.word(0) if dist.array().any(axis=(1, 2)).all() else space.zero()
    spec = distance_spectrum(dist, anchor)
    q, k = space.q, dist.exponent()
    payload = {
        "params": {"q": q, "n": space.n, "s": space.s},
        "anchor": [list(r) for r in anchor],
        "w": spec,
        "source": "bruteforce",
    }
    lines = [f"bruteforce spectrum: {spec}"]
    # more than q^(ns) points (k > ns) repeat one, so cannot be optimum
    if k is not None and k <= space.dim and optimum_report(dist, k).ok:
        formula = mds_spectrum(space.n, space.s, k, q)
        payload["formula"] = formula
        payload["formula_matches"] = formula == spec
        lines.append(f"closed-form spectrum: {formula}")
        lines.append(f"formula matches: {formula == spec}")
    else:
        payload["warning"] = "input is not an optimum distribution; closed forms omitted"
        lines.append("warning: not an optimum distribution, closed forms omitted")
    if linear:
        payload["weight_enumerator"] = spec
        counts = corner_box_counts(dist)  # refused above its bound before a key is built
        keys = sides = [str(a) for a in range(space.s + 1)]
        for _ in range(space.n - 1):
            keys = [f"{key},{a}" for key in keys for a in sides]
        payload["box_enumerator"] = dict(zip(keys, counts))
        if space.n == 1:
            ok = duality_ok(dist.code(), dist.code().dual())
            payload["macwilliams_n1"] = ok
            lines.append(f"n=1 MacWilliams identity: {ok}")
    _emit(args, payload, lines)
    return 0


def cmd_dual(args) -> int:
    code = _read(args, read_code)
    dual = code.dual()
    _save(args.out, write_code, dual)
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
    from . import peano

    g = args.g
    if args.type == "code":
        code = _read(args, read_code)
        if code.space.n % g:
            raise UsageError("--g must divide n")
        merged = peano.merge_code(code, g)
        _save(args.out, write_code, merged)
        w_before = code.min_weight("nrt") if code.k else None
        w_after = merged.min_weight("nrt") if merged.k else None
        payload = {"g": g, "weight_before": w_before, "weight_after": w_after,
                   "n": merged.space.n, "s": merged.space.s}
        _emit(args, payload, [
            f"merged to [{merged.space.dim},{merged.k}]_{merged.space.s}",
            f"NRT weight {w_before} -> {w_after}",
        ])
    else:
        dist = _read(args, read_point_set)
        if dist.space.n % g:
            raise UsageError("--g must divide n")
        merged = peano.merge_distribution(dist, g)
        _save(args.out, write_point_set, merged)
        payload = {"g": g, "n": merged.space.n, "s": merged.space.s,
                   "points": len(merged)}
        _emit(args, payload, [f"merged {len(merged)} points into "
                              f"Q^{merged.space.n}(q^{merged.space.s})"])
    return 0


def cmd_basechange(args) -> int:
    """Least weights of the file's nonzero points in base q and base p; they
    are the minimum distances only when the file is linear."""
    from . import peano

    dist = _read(args, read_point_set)
    reduced = dist.to_base_p()
    rep = peano.distribution_base_change_weights(dist, reduced)
    _save(args.out, write_point_set, reduced)
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
    dist = _read(args, read_point_set)
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


# one spec per option: the keyword arguments of `add_argument`
OPTIONS = {
    "p": dict(type=int, help="field characteristic"),
    "e": dict(type=_positive_int, help="extension degree (default 1)"),
    "q": dict(type=int, help="field size (prime power)"),
    "n": dict(type=int, help="number of dimensions / rows"),
    "s": dict(type=int, help="digits per coordinate"),
    "k": dict(type=int, help="code / distribution dimension"),
    "g": dict(type=_positive_int, default=1, help="row block size"),
    "t": dict(type=int, help="composite dimension multiplier"),
    "delta": dict(type=int, help="net deficiency"),
    "nodes": dict(help="comma separated node labels, inf allowed"),
    "format": dict(choices=("text", "json"), default="text"),
    "in": dict(required=True, help="input file"),
    "out": dict(help="output file or prefix"),
    "kind": dict(choices=("net", "optimum", "mds"), required=True),
    "type": dict(choices=("code", "points"), default="code"),
}

# command -> (handler, help, the options its handler reads)
COMMANDS = {
    "generate": (cmd_generate, "build an MDS code + optimum distribution",
                 ("p", "e", "q", "n", "s", "k", "g", "t", "nodes", "format", "out")),
    "verify": (cmd_verify, "verify a net / optimum / MDS property",
               ("k", "delta", "format", "in", "kind")),
    "spectrum": (cmd_spectrum, "weight spectra of a point set", ("format", "in")),
    "dual": (cmd_dual, "dual of a linear code", ("format", "in", "out")),
    "peano": (cmd_peano, "merge row blocks (gn,s) -> (n,gs)",
              ("g", "format", "in", "out", "type")),
    "basechange": (cmd_basechange, "re-express base p^e in base p",
                   ("format", "in", "out")),
    "discrepancy": (cmd_discrepancy, "exact star discrepancy", ("format", "in")),
    "field-info": (cmd_field_info, "describe the field tables",
                   ("p", "e", "q", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nrtcodes",
        description="MDS codes in the NRT metric, optimum distributions and nets")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument(f"--{name}", **OPTIONS[name])
    return parser


def main(argv=None) -> int:
    # OpenBLAS starts one thread per core, each with its own buffers, when
    # numpy loads; under an address-space limit that start fails with exit 1,
    # the "verified false" code.  Nothing here calls BLAS.  Set before any
    # command imports numpy; a value the caller set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    fmt = _requested_format(argv)
    try:
        args = build_parser().parse_args(argv)
        fmt = args.format
        return COMMANDS[args.command][0](args)
    except _ParseError as exc:
        if fmt != "json":
            # argparse's own report: usage on stderr, then exit 2
            argparse.ArgumentParser.error(exc.parser, str(exc))
        error = {"error": str(exc)}
    except (UsageError, ValueError, OSError) as exc:
        error = {"error": str(exc)}
        if isinstance(exc, PointFileError):
            error["line"] = exc.line
    except MemoryError as exc:  # a resource refusal, not a fault
        error = {"error": f"out of memory: {exc}" if str(exc) else "out of memory"}
    except Exception as exc:  # a fault of the program, still never a traceback
        error = {"error": f"internal: {type(exc).__name__}: {exc}"}
    if fmt == "json":
        import json

        try:
            print(json.dumps({"schema": SCHEMA, **error}, sort_keys=True), flush=True)
            return 2
        except OSError:  # stdout itself failed: say so where it can be read
            pass
    _tell(f"error: {error['error']}")
    return 2


def _tell(line: str) -> None:
    """`line` on stderr, unless stderr cannot be written either."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def run() -> NoReturn:
    """The process entry of `python -m nrtcodes.cli` and of the `nrtcodes`
    script: `main`'s code, once stdout and stderr are flushed, by
    `os._exit`, skipping the interpreter's teardown (about 30 ms, mostly
    numpy's).  `_save` closes every written file before `main` returns,
    and neither nrtcodes nor numpy registers an `atexit` handler.
    argparse's exits keep their codes; a failed flush exits 2."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help 0, a text-mode usage error 2
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a fault while reporting one, say out of memory
        code = 2
        _tell(f"error: internal: {type(exc).__name__}: {exc}")
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
        except OSError as exc:
            if code != 2:  # a 2 from `main` has been reported already
                _tell(f"error: {exc}")
            code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
