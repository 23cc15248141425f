"""The benchmark's workloads: seeded inputs, the steps of one pass, and
an oracle for every operation.

A step is a dict.  `op` is "cli" (argv of one nrtcodes command, run as a
subprocess, or in-process by the traced runner), "bench" (the benchmark's
own file edit between commands) or "case" (one case of the in-process
library sweep).  The oracles here never call nrtcodes: they parse the
files with numpy and recount boxes, weights and discrepancies themselves.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import numpy as np

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(DIGITS):
    _LUT[ord(_ch)] = _i


def prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def seeded_nodes(rng: random.Random, q: int, n: int) -> list:
    """n distinct evaluation nodes out of the q labels and INF, in random
    order; any such choice gives an MDS code when q >= n - 1."""
    return rng.sample(list(range(q)) + ["inf"], n)


def nodes_arg(nodes) -> str:
    return ",".join(str(b) for b in nodes)


# --- point files, parsed independently of the package ---

class PointFile:
    """Header lines, point lines and the (N, n, s) radix digits (most
    significant first) of a point-set file."""

    def __init__(self, path):
        lines = Path(path).read_text().split("\n")
        content = [i for i, t in enumerate(lines) if t.strip() and not t.startswith("#")]
        first = content[0]
        if len(lines[first].split()) != 4:
            first = content[1]
        self.head = lines[:first + 1]
        q, n, s, count = (int(v) for v in lines[first].split())
        self.q, self.n, self.s, self.count = q, n, s, count
        self.lines = lines[first + 1:first + 1 + count]
        if len(self.lines) != count or any(len(t) != n * (s + 1) - 1 for t in self.lines):
            raise ValueError(f"{path}: malformed point lines")
        raw = np.frombuffer("".join(self.lines).replace(" ", "").encode(), dtype=np.uint8)
        self.eta = _LUT[raw].reshape(count, n, s)
        if (self.eta >= q).any():
            raise ValueError(f"{path}: digit out of range")

    def write(self, path, lines) -> None:
        Path(path).write_text("\n".join(self.head + list(lines)) + "\n")


def compositions(total: int, parts: int, bound: int):
    """(a_1..a_parts), 0 <= a_j <= bound, summing to total; the last part
    varies slowest, the order in which the package reports failing boxes."""
    if parts == 1:
        if total <= bound:
            yield (total,)
        return
    for last in range(min(total, bound) + 1):
        for head in compositions(total - last, parts - 1, bound):
            yield head + (last,)


def family_keys(eta: np.ndarray, q: int, a_vec) -> np.ndarray:
    """Mixed-radix index of each point's box in the family with side
    exponents a_vec; the first coordinate's position varies fastest."""
    key = np.zeros(eta.shape[0], dtype=np.int64)
    scale = 1
    for j, a in enumerate(a_vec):
        m = np.zeros(eta.shape[0], dtype=np.int64)
        for i in range(a):
            m = m * q + eta[:, j, i]
        key += m * scale
        scale *= q ** a
    return key


def first_bad_box(eta: np.ndarray, q: int, total: int, per_box: int):
    """First box (sides summing to `total`) not holding `per_box` points,
    as (a, m, count), or None when every box holds exactly that many."""
    _, n, s = eta.shape
    for a_vec in compositions(total, n, s):
        counts = np.bincount(family_keys(eta, q, a_vec), minlength=q ** total)
        bad = np.flatnonzero(counts != per_box)
        if bad.size:
            idx = int(bad[0])
            m = []
            for a in a_vec:
                m.append(idx % q ** a)
                idx //= q ** a
            return list(a_vec), m, int(counts[bad[0]])
    return None


def digit_sub(q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Field subtraction on labels, which are base-p coefficient vectors."""
    p, e = prime_power(q)
    out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    mult = 1
    for _ in range(e):
        out += ((x % p - y % p) % p) * mult
        x //= p
        y //= p
        mult *= p
    return out


def nrt_spectrum(pf: PointFile, anchor_eta: np.ndarray) -> list[int]:
    """Histogram of NRT distances from anchor_eta, an (n, s) digit array."""
    diff = digit_sub(pf.q, pf.eta, anchor_eta[None]) != 0
    lead = np.where(diff.any(axis=2), pf.s - diff.argmax(axis=2), 0)
    return np.bincount(lead.sum(axis=1), minlength=pf.n * pf.s + 1).tolist()


def star_discrepancy(pf: PointFile) -> Fraction:
    """Exact star discrepancy by cumulative counts on the full q^-s grid.

    Between grid lines the count of [0, y) is constant and the volume is
    monotone, so the supremum is the largest of |W(c)/N - vol| at the two
    extreme corners of every grid cell, W(c) counting points x <= c/q^s."""
    n, side = pf.n, pf.q ** pf.s
    coords = np.zeros((pf.count, n), dtype=np.int64)
    for i in range(pf.s):
        coords = coords * pf.q + pf.eta[:, :, i]
    hist = np.zeros((side,) * n, dtype=np.int64)
    np.add.at(hist, tuple(coords.T), 1)
    cum = hist
    for axis in range(n):
        cum = np.cumsum(cum, axis=axis)
    lower = np.ones((side,) * n, dtype=object)
    upper = np.ones((side,) * n, dtype=object)
    grid = np.arange(side, dtype=object)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = side
        lower = lower * grid.reshape(shape)
        upper = upper * (grid + 1).reshape(shape)
    denom = side ** n
    scaled = cum.astype(object) * denom
    worst = max(np.abs(scaled - pf.count * lower).max(),
                np.abs(scaled - pf.count * upper).max())
    return Fraction(int(worst), pf.count * denom)


def move_point(src: str, dst: str, seed: int) -> None:
    """Copy an optimum point file with one seeded point moved onto the
    point in the middle box of the first box family.

    Every box before the middle one still holds one point, so the first
    failing box the package reports is the middle box, holding 2.  Its
    witness search then covers half of the family for every seed."""
    pf = PointFile(src)
    k = _k_of(pf)
    keys = family_keys(pf.eta, pf.q, next(compositions(k, pf.n, pf.s)))
    target = pf.q ** k // 2
    j = int(np.flatnonzero(keys == target)[0])
    i = random.Random(seed).choice(np.flatnonzero(keys > target).tolist())
    lines = list(pf.lines)
    lines[i] = lines[j]
    pf.write(dst, lines)


def _k_of(pf: PointFile) -> int:
    k = 0
    while pf.q ** k < pf.count:
        k += 1
    return k


def run_bench_step(step: dict) -> None:
    move_point(**step["args"])


# --- workloads ---

def _cli(sid, family, argv, check, **expect):
    return {"id": sid, "op": "cli", "family": family,
            "argv": [str(v) for v in argv] + ["--format", "json"], "check": check,
            "expect": expect}


class Workload:
    """One workload: `steps` lists one pass; `setup_files` are the point
    and code files the set-up builds with the package; `write_inputs`
    writes the inputs the benchmark derives itself; `check` is the
    oracle of one operation, `check_files` that of the files a pass
    writes."""

    name = ""
    families: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, indir: Path, rundir: Path):
        self.smoke = smoke
        self.indir = indir
        self.rundir = rundir
        self.rng = random.Random(seed)

    def setup_files(self) -> list[dict]:
        return []

    def write_inputs(self) -> None:
        pass

    def prepare(self) -> None:
        """Expected values derived from the inputs, outside any timing."""

    def outputs(self) -> dict[str, str]:
        """Files a pass writes, by the id of the step that writes them."""
        return {}

    def check(self, step: dict, rc: int, payload: dict | None) -> str | None:
        raise NotImplementedError

    def check_files(self) -> dict[str, str]:
        return {}


class PointsLarge(Workload):
    # Large linear point sets: file write/parse in `words`, `bulk.span_array`,
    # prefix-key box counting in `geometry` and enumerated minimum weights do
    # the work; scalar field, polynomial and RREF code do almost none.  The
    # pass writes files (generate, peano, basechange) beside reading them
    # (verify), so a gain on one side that costs the other shows up.
    name = "points-large"
    families = ("generate", "verify_points", "transform")

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.a, self.b = (4, 2, 2, 3), (3, 2, 2, 3)
            self.c = dict(q=3, n=2, s=1, g=2, t=1)
        else:
            self.a, self.b = (4, 4, 4, 7), (5, 4, 3, 6)
            self.c = dict(q=5, n=2, s=3, g=2, t=1)
        self.nodes_a = seeded_nodes(self.rng, self.a[0], self.a[1])
        self.nodes_b = seeded_nodes(self.rng, self.b[0], self.b[1])
        c = self.c
        self.nodes_c = seeded_nodes(self.rng, c["q"], c["g"] * c["n"])
        self.move_seed = self.rng.randrange(1 << 30)
        self.witness = None

    def _path(self, name):
        return str(self.rundir / name)

    def steps(self):
        out = []
        for tag, (q, n, s, k), nodes in (("A", self.a, self.nodes_a),
                                         ("B", self.b, self.nodes_b)):
            pts = self._path(f"{tag}.points")
            out.append(_cli(f"generate-{tag}", "generate",
                            ["generate", "--q", q, "--n", n, "--s", s, "--k", k,
                             "--nodes", nodes_arg(nodes), "--out", self._path(tag)],
                            "generate"))
            out.append(_cli(f"optimum-{tag}", "verify_points",
                            ["verify", "--kind", "optimum", "--in", pts, "--k", k],
                            "verified"))
            out.append(_cli(f"net-{tag}", "verify_points",
                            ["verify", "--kind", "net", "--in", pts, "--delta", k - s],
                            "verified"))
            if tag == "A":
                moved = self._path("A-moved.points")
                out.append({"id": "move-A", "op": "bench",
                            "args": {"src": pts, "dst": moved, "seed": self.move_seed}})
                out.append(_cli("optimum-A-moved", "verify_points",
                                ["verify", "--kind", "optimum", "--in", moved, "--k", k],
                                "witness"))
                out.append(_cli("peano-A", "transform",
                                ["peano", "--type", "points", "--g", 2, "--in", pts,
                                 "--out", self._path("A-peano.points")],
                                "peano", points=q ** k, n=n // 2, s=2 * s))
                out.append(_cli("basechange-A", "transform",
                                ["basechange", "--in", pts,
                                 "--out", self._path("A-base.points")],
                                "basechange", nrt_q=n * s - k + 1))
        c = self.c
        k = c["g"] * c["s"] * c["t"]
        pts = self._path("C.points")
        out.append(_cli("generate-C", "generate",
                        ["generate", "--q", c["q"], "--n", c["n"], "--s", c["s"],
                         "--g", c["g"], "--t", c["t"], "--nodes", nodes_arg(self.nodes_c),
                         "--out", self._path("C")],
                        "composite", nrt=(c["n"] * c["s"] - c["s"] * c["t"]) * c["g"] + 1,
                        dual_nrt=c["s"] * c["t"] * c["g"] + 1))
        out.append(_cli("optimum-C", "verify_points",
                        ["verify", "--kind", "optimum", "--in", pts, "--k", k], "verified"))
        out.append(_cli("net-C", "verify_points",
                        ["verify", "--kind", "net", "--in", pts, "--delta", k - c["g"] * c["s"]],
                        "verified"))
        return out

    def outputs(self):
        return {"generate-A": "A.points", "generate-B": "B.points",
                "generate-C": "C.points", "optimum-A-moved": "A-moved.points",
                "peano-A": "A-peano.points", "basechange-A": "A-base.points"}

    def check(self, step, rc, payload):
        kind = step["check"]
        want_rc = 1 if kind == "witness" else 0
        if rc != want_rc or payload is None:
            return f"exit {rc}, wanted {want_rc} with a JSON report"
        exp = step["expect"]
        if kind == "generate":
            ok = payload.get("mds_verified") is True and payload.get("optimum_verified") is True
        elif kind == "composite":
            w = payload.get("weights", {})
            ok = (payload.get("weight_relations_ok") is True
                  and payload.get("optimum_verified") is True
                  and w.get("nrt") == exp["nrt"] and w.get("dual_nrt") == exp["dual_nrt"])
        elif kind == "verified":
            ok = payload.get("ok") is True
        elif kind == "witness":
            got = payload.get("counterexample", {})
            ok = (payload.get("ok") is False and self.witness is not None
                  and [got.get("a"), got.get("m"), got.get("count")] == list(self.witness)
                  and got.get("count") == 2 and got.get("expected") == 1)
        elif kind == "peano":
            ok = all(payload.get(key) == exp[key] for key in ("points", "n", "s"))
        else:
            ok = payload.get("bounds_ok") is True and payload.get("nrt_q") == exp["nrt_q"]
        return None if ok else f"report disagrees with the oracle: {payload}"

    def check_files(self):
        """Recount the written files with numpy: every generated set is
        optimum and a net, the moved copy's first failing box is found
        independently, and the transforms re-express the same points."""
        bad = {}
        checks = {
            "generate-A": lambda: self._optimum_net("A.points", self.a[3]),
            "generate-B": lambda: self._optimum_net("B.points", self.b[3]),
            "generate-C": lambda: self._optimum_net(
                "C.points", self.c["g"] * self.c["s"] * self.c["t"]),
            "optimum-A-moved": self._moved,
            "peano-A": self._merged,
            "basechange-A": self._based,
        }
        for sid, check in checks.items():
            try:
                reason = check()
            except (OSError, ValueError, IndexError) as exc:
                reason = f"unreadable output: {exc}"
            if reason:
                bad[sid] = reason
        return bad

    def _optimum_net(self, name, k):
        pf = PointFile(self.rundir / name)
        if pf.count != pf.q ** k or first_bad_box(pf.eta, pf.q, k, 1) is not None:
            return f"{name} is not an optimum distribution"
        if first_bad_box(pf.eta, pf.q, pf.s, pf.q ** (k - pf.s)) is not None:
            return f"{name} is not a ({k - pf.s},{k},{pf.n})-net"
        return None

    def _moved(self):
        a = PointFile(self.rundir / "A.points")
        moved = PointFile(self.rundir / "A-moved.points")
        self.witness = first_bad_box(moved.eta, moved.q, self.a[3], 1)
        if self.witness is None or sum(x != y for x, y in zip(a.lines, moved.lines)) != 1:
            return "the moved copy does not differ from A in one point"
        return None

    def _merged(self):
        a = PointFile(self.rundir / "A.points")
        merged = PointFile(self.rundir / "A-peano.points")
        want = [" ".join(t[j + 1] + t[j] for j in range(0, len(t), 2))
                for t in (line.split() for line in a.lines)]
        return None if merged.lines == want else (
            "merged points are not the row-block concatenations of A")

    def _based(self):
        a = PointFile(self.rundir / "A.points")
        p, e = prime_power(a.q)
        expand = {DIGITS[v]: np.base_repr(v, p).rjust(e, "0") for v in range(a.q)}
        based = PointFile(self.rundir / "A-base.points")
        want = ["".join(expand.get(ch, ch) for ch in line) for line in a.lines]
        return None if based.lines == want and based.q == p else (
            "base-p points are not the digit expansion of A")


class Analyze(Workload):
    # Spectra, discrepancy and duality of stored sets: the scalar RREF of
    # all N words in `cmd_spectrum` (LinearCode.from_words) and the tuple
    # conversion Distribution.words() do most of the work, and Fraction
    # arithmetic in geometry.star_discrepancy the other big share.  File
    # I/O is a minor share.  One spectrum input is a digital shift, a
    # non-linear coset that is still optimum.
    name = "analyze"
    families = ("spectrum", "discrepancy", "code")

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.lin, self.lin4 = (5, 2, 2, 2), (4, 2, 2, 2)
            self.small = [(3, 2, 2, 3)]
        else:
            self.lin, self.lin4 = (5, 4, 3, 6), (4, 4, 4, 5)
            self.small = [(4, 2, 3, 4), (3, 2, 4, 5), (5, 2, 2, 4)]
        self.specs = {"L5": self.lin, "L4": self.lin4}
        for i, params in enumerate(self.small):
            self.specs[f"D{i}"] = params
        self.nodes = {tag: seeded_nodes(self.rng, p[0], p[1]) for tag, p in self.specs.items()}
        self.shift_seed = self.rng.randrange(1 << 30)

    def _path(self, name):
        return str(self.indir / name)

    def setup_files(self):
        return [{"out": self._path(tag), "q": q, "n": n, "s": s, "k": k,
                 "nodes": self.nodes[tag]}
                for tag, (q, n, s, k) in self.specs.items()]

    def write_inputs(self):
        """The shifted copy: every point plus a seeded nonzero digit in the
        leading position of the last coordinate.  That word has NRT weight
        s, below the code's minimum weight, so the copy is a coset of the
        code and not a linear code.  Shifting one fixed position keeps the
        work of the spectrum's RREF independent of the shift's value."""
        pf = PointFile(self._path("L5.points"))
        shift = np.zeros((pf.n, pf.s), dtype=np.int64)
        shift[-1, 0] = random.Random(self.shift_seed).randrange(1, pf.q)
        moved = (pf.eta.astype(np.int64) + shift[None]) % pf.q   # q is prime here
        lines = [" ".join("".join(DIGITS[v] for v in row) for row in word)
                 for word in moved.tolist()]
        if lines[0] in set(pf.lines):
            raise ValueError("the shift lies in the code")
        pf.write(self._path("S5.points"), lines)

    def steps(self):
        out = []
        for tag in ("L5", "S5", "L4"):
            out.append(_cli(f"spectrum-{tag}", "spectrum",
                            ["spectrum", "--in", self._path(f"{tag}.points")],
                            "spectrum", tag=tag))
        for i in range(len(self.small)):
            out.append(_cli(f"discrepancy-D{i}", "discrepancy",
                            ["discrepancy", "--in", self._path(f"D{i}.points")],
                            "discrepancy", tag=f"D{i}"))
        for tag in ("L5", "L4"):
            q, n, s, k = self.specs[tag]
            code = self._path(f"{tag}.code")
            out.append(_cli(f"dual-{tag}", "code", ["dual", "--in", code], "dual",
                            weight=n * s - k + 1, dual_k=n * s - k, dual_weight=k + 1))
            out.append(_cli(f"mds-{tag}", "code", ["verify", "--kind", "mds", "--in", code],
                            "mds", weight=n * s - k + 1))
        return out

    def prepare(self):
        self.expected = {}
        for tag in ("L5", "S5", "L4"):
            pf = PointFile(self._path(f"{tag}.points"))
            linear = tag != "S5"
            anchor = np.zeros((pf.n, pf.s), dtype=np.int64) if linear else pf.eta[0]
            q, n, s, k = self.specs.get(tag, self.lin)
            boxes = {}
            for a_vec in np.ndindex(*(s + 1,) * n):
                boxes[",".join(map(str, a_vec))] = q ** max(k - sum(a_vec), 0)
            self.expected[tag] = {
                "w": nrt_spectrum(pf, anchor),
                # anchor rows are stored least significant digit first
                "anchor": anchor[:, ::-1].tolist(),
                "linear": linear, "boxes": boxes}
        for i in range(len(self.small)):
            pf = PointFile(self._path(f"D{i}.points"))
            self.expected[f"D{i}"] = star_discrepancy(pf)

    def check(self, step, rc, payload):
        if rc != 0 or payload is None:
            return f"exit {rc}, wanted 0 with a JSON report"
        kind, exp = step["check"], step["expect"]
        if kind == "spectrum":
            want = self.expected[exp["tag"]]
            ok = (payload.get("w") == want["w"] and payload.get("formula") == want["w"]
                  and payload.get("formula_matches") is True
                  and payload.get("anchor") == want["anchor"])
            if want["linear"]:
                ok = ok and (payload.get("weight_enumerator") == want["w"]
                             and payload.get("box_enumerator") == want["boxes"])
            else:
                ok = ok and "weight_enumerator" not in payload
        elif kind == "discrepancy":
            got = Fraction(payload.get("numerator", 0), payload.get("denominator", 1))
            ok = got == self.expected[exp["tag"]]
        elif kind == "dual":
            ok = all(payload.get(key) == exp[key] for key in ("weight", "dual_k", "dual_weight"))
        else:
            ok = payload.get("ok") is True and payload.get("weight") == exp["weight"]
        return None if ok else f"report disagrees with the oracle: {payload}"


class Sweep(Workload):
    # Many small cases in one process: the median case takes about a
    # millisecond, so per-call overhead in `gf`, `poly` and `construct` and
    # the scalar codes.rref / rank inside parity_nrt_weight dominate.  No
    # subprocess per case and no file I/O: a change that speeds up bulk
    # arrays but adds fixed cost per call shows up here.
    name = "sweep"
    families = ("cases",)

    CERT_SHAPES = ((16, 5, 3, 8), (8, 4, 5, 10), (7, 4, 6, 12), (9, 4, 4, 8))

    def __init__(self, *args):
        super().__init__(*args)
        self.cases = []
        qs = (2, 3) if self.smoke else (2, 3, 4, 5)
        ns_max = 3 if self.smoke else 8
        for q in qs:
            for n in range(1, min(q + 1, 4) + 1):
                for s in range(1, ns_max + 1):
                    if n * s <= ns_max:
                        self.cases += [["grid", q, n, s, k] for k in range(1, n * s + 1)]
        shapes = ((9, 2, 3, 3),) if self.smoke else self.CERT_SHAPES
        for q, n, s, k in shapes:
            # parity certificates beyond the enumeration bound: the MDS code
            # of the construction, and a seeded random code with a planted
            # word of weight ns - k, which cannot be MDS
            self.cases.append(["mds", q, n, s, k])
            rows = [[self.rng.randrange(q) for _ in range(n * s)] for _ in range(k - 1)]
            self.cases.append(["planted", q, n, s, k, rows + [self._planted(q, n, s, k)]])

    def _planted(self, q, n, s, k):
        """Random word whose row weights are the last composition of ns - k
        in the parity search's order, so the search checks every profile
        below it and its work is the same for every seed."""
        *_, depths = compositions(n * s - k, n, s)
        word = []
        for d in depths:
            row = [self.rng.randrange(q) for _ in range(s)]
            for i in range(d, s):
                row[i] = 0
            if d:
                row[d - 1] = self.rng.randrange(1, q)
            word += row
        return word

    def steps(self):
        return [{"id": f"case-{i}", "op": "case", "family": "cases", "case": case}
                for i, case in enumerate(self.cases)]

    def check(self, step, rc, payload):
        return None if rc == 0 else "a result disagrees with its oracle"


WORKLOADS = {cls.name: cls for cls in (PointsLarge, Analyze, Sweep)}
