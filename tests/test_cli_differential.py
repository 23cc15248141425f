"""One differential test of the CLI against the slow oracles of
`_helpers`: random codes over GF(2), GF(3), GF(4) and GF(5), their code
files, and point files that are their span, a digital shift of it, a copy
with one point moved and a copy with one point doubled, each in LF or CRLF,
and an LF file of a coset of one row, for `discrepancy`.
Every command runs through `cli.main` with `--format json`; its exit code
and its whole payload are compared with an oracle that takes none of the
package's routes: box counts family by family with their witness
(`family_report`), NRT weights word by word (`words.nrt_weight`), the
dual enumerated over the whole space by the reversed pairing, and the
star discrepancy over the whole q^-s lattice (`lattice_discrepancy`)."""

import contextlib
import io
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import event, given, settings, strategies as st

from nrtcodes import geometry
from nrtcodes.cli import main
from nrtcodes.construct import build_mds_code
from nrtcodes.gf import GF
from nrtcodes.words import Distribution, Space, nrt_weight

from _helpers import (bounded_compositions, family_report, lattice_discrepancy,
                      point_lines_by_word, rref_by_columns, span_array_by_passes)

FIELDS = [GF(2), GF(3), GF(2, 2), GF(5)]


def run(argv):
    """`main`'s status and JSON payload, without its schema number."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv + ["--format", "json"])
    payload = json.loads(out.getvalue())
    del payload["schema"]
    return status, payload


def weights(space, flat):
    """The NRT weight of each flat word, one `nrt_weight` call a word."""
    return [nrt_weight(space.unflatten(w)) for w in flat.tolist()]


def verdict(kind, report):
    """The status and payload of `verify --kind kind` for a box report."""
    payload = {"kind": kind, "ok": report.ok}
    if not report.ok:
        payload["counterexample"] = {"a": list(report.box.a), "m": list(report.box.m),
                                     "count": report.count, "expected": report.expected}
    return int(not report.ok), payload


def check_code(space, basis, path):
    """`verify --kind mds` and `dual` against the words of the code and of
    its dual: the words of the space whose reversed pairing (`Space.inner`:
    per block sum_i x_i y_(s+1-i)) with every basis row is 0."""
    gf, q, s, dim, k = space.gf, space.q, space.s, space.dim, len(basis)
    head = (gf.describe() + "\n" if gf.e > 1 else "") + f"{q} {space.n} {s} {k}\n"
    path.write_text(head + "".join(
        " ".join(str(v) for j in range(space.n) for v in reversed(row[j * s:(j + 1) * s])) + "\n"
        for row in basis))
    code_words = span_array_by_passes(gf, basis, dim)[1:]
    weight = min(weights(space, code_words))
    bound = dim - k + 1
    assert run(["verify", "--kind", "mds", "--in", str(path)]) == (
        int(weight != bound), {"kind": "mds", "ok": weight == bound, "weight": weight,
                               "bound": bound})
    space_words = span_array_by_passes(gf, np.eye(dim, dtype=int).tolist(), dim)
    paired = np.zeros((len(space_words), k), dtype=np.int16)
    for c in range(dim):
        mate = np.array([row[c - c % s + s - 1 - c % s] for row in basis])
        paired = gf.add_table[paired, gf.mul_table[space_words[:, c, None], mate[None]]]
    dual_words = space_words[~paired.any(axis=1)]
    dual_k = dim - k
    assert len(dual_words) == q ** dual_k
    dual_weight = min(weights(space, dual_words[1:])) if dual_k else None
    assert run(["dual", "--in", str(path)]) == (
        0, {"k": k, "dual_k": dual_k, "weight": weight, "dual_weight": dual_weight})
    event(f"mds {weight == bound}, dual_k {dual_k}")


def write_points(space, flat, path, crlf):
    """The points `flat` in file order, written to `path`, as a set."""
    gf, q, n, s = space.gf, space.q, space.n, space.s
    arr = flat.reshape(len(flat), n, s)
    head = (gf.describe() + "\n" if gf.e > 1 else "") + f"{q} {n} {s} {len(arr)}\n"
    text = head.encode() + point_lines_by_word(arr)
    path.write_bytes(text.replace(b"\n", b"\r\n") if crlf else text)
    return Distribution(space, array=arr)


def check_discrepancy(dist, path):
    """`discrepancy` against `lattice_discrepancy`, priced with numpy
    loaded, and as a fresh process prices it, where a span or coset (an
    LF file read as its rows) takes the Python route."""
    value = lattice_discrepancy(dist)
    answer = (0, {"discrepancy": str(value), "numerator": value.numerator,
                  "denominator": value.denominator})
    assert run(["discrepancy", "--in", str(path)]) == answer
    with mock.patch.object(geometry, "sys", SimpleNamespace(modules={})):
        assert run(["discrepancy", "--in", str(path)]) == answer


def check_points(space, flat, k, path, crlf):
    """`verify --kind optimum`, `verify --kind net` at every deficiency,
    `spectrum` and `discrepancy` on the q^k points `flat`, in file order,
    against `family_report`, the weights from the first point (from zero
    where zero is a point) and `lattice_discrepancy`.  The set is linear
    iff its points are distinct and q^rank of them."""
    gf, q, n, s = space.gf, space.q, space.n, space.s
    dist = write_points(space, flat, path, crlf)
    optimum = family_report(dist, [(a, 1) for a in bounded_compositions(k, n, s)])
    assert run(["verify", "--kind", "optimum", "--in", str(path)]) == verdict("optimum", optimum)
    for delta in range(k + 1):
        t = k - delta  # sides past s read zero digits
        net = family_report(dist, [(a, q ** delta) for a in bounded_compositions(t, n, t)])
        assert run(["verify", "--kind", "net", "--delta", str(delta), "--in", str(path)]) == (
            verdict("net", net))
    anchor = flat[0] if flat.any(axis=1).all() else np.zeros_like(flat[0])
    hist = [0] * (space.dim + 1)
    for w in weights(space, gf.add_table[flat, gf.neg_table[anchor][None]]):
        hist[w] += 1
    linear = (len(np.unique(flat, axis=0)) == len(flat)
              == q ** len(rref_by_columns(gf, flat.tolist())))
    status, payload = run(["spectrum", "--in", str(path)])
    assert status == 0 and payload["w"] == hist
    assert payload["anchor"] == anchor.reshape(n, s).tolist()
    assert ("formula" in payload) == optimum.ok
    assert payload.get("formula_matches", True)
    assert payload.get("weight_enumerator", hist) == hist
    assert ("box_enumerator" in payload) == linear
    check_discrepancy(dist, path)
    return optimum.ok, linear


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_commands_answer_as_the_oracles_do(tmp_path_factory, data):
    draw = data.draw
    gf = draw(st.sampled_from(FIELDS))
    q = gf.q
    n, s = draw(st.sampled_from([(n, s) for n in (1, 2, 3) for s in (1, 2, 3)
                                 if q ** (n * s) <= 4096]))
    space = Space(gf, n, s)
    dim = space.dim
    k = draw(st.integers(1, max(k for k in range(1, dim + 1) if q ** k <= 1024)))
    word = st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)
    if n <= q + 1 and draw(st.booleans()):
        rows = [list(r) for r in build_mds_code(space, k).basis]
    else:
        rows = draw(st.lists(word, min_size=k, max_size=k))
        rows[0][draw(st.integers(0, dim - 1))] = draw(st.integers(1, q - 1))
    tmp = tmp_path_factory.getbasetemp()
    check_code(space, rref_by_columns(gf, rows), tmp / "c.code")

    span = span_array_by_passes(gf, rows, dim)
    shifted = gf.add_table[span, np.array(draw(word))[None]]
    moved = shifted.copy()
    i, c = draw(st.integers(0, len(span) - 1)), draw(st.integers(0, dim - 1))
    moved[i, c] = gf.add_table[moved[i, c], draw(st.integers(1, q - 1))]
    doubled = span.copy()
    i, j = draw(st.lists(st.integers(0, len(span) - 1), min_size=2, max_size=2, unique=True))
    doubled[i] = doubled[j]
    for name, flat in (("span", span), ("shift", shifted), ("moved", moved),
                       ("doubled", doubled)):
        crlf = draw(st.booleans())
        ok, linear = check_points(space, flat, k, tmp / f"{name}.points", crlf)
        event(f"{name} {'crlf' if crlf else 'lf'}: optimum {ok}, linear {linear}")
    # q points of a coset of the first row, its offset's top digits nonzero:
    # few points near the far corner, so that the open term's maximum often
    # falls at a corner that some point meets in some coordinates
    offset = draw(word)
    for j in range(n):
        offset[j * s + s - 1] = draw(st.integers(1, q - 1))
    few = gf.add_table[span_array_by_passes(gf, rows[:1], dim), np.array(offset)[None]]
    check_discrepancy(write_points(space, few, tmp / "few.points", False), tmp / "few.points")
