"""The three benchmark workloads: inputs, the operation, and its exact checks.

Each workload is an endless, seeded sequence of operations. Operation i
draws its inputs from ``random.Random(f"{seed}/{name}/{i}")`` and its
shape from ``STRATA[i % len(STRATA)]``, so op i is the same whatever ran
before it, and every whole round of ``len(STRATA)`` operations has the
same input mix. Operations call the library through module attributes
(``lb.lp.min_union_coupling``), never through names bound at import, so
the tracing wrappers see every call.

``check`` never calls the library: it recomputes what the mathematics
fixes (column maxima, marginals, union masses) with the benchmark's own
code, and returns the problems found plus the values stored as golden
values for the default seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction as Q
from itertools import combinations
from pathlib import Path

import gen


def fmt(q) -> str:
    return "inapplicable" if q is None else f"{q.numerator}/{q.denominator}"


def marginal_problems(mass: dict, m: int, rows: list[list[Q]], symbols: list) -> list[str]:
    """Re-sum an m-coordinate coupling and compare with the declared rows."""
    problems = []
    if any(q < 0 for q in mass.values()):
        problems.append("negative coupling mass")
    if sum(mass.values(), Q(0)) != 1:
        problems.append("coupling mass does not sum to 1")
    index = {s: k for k, s in enumerate(symbols)}
    got = [[Q(0)] * len(symbols) for _ in range(m)]
    for tup, q in mass.items():
        for i in range(m):
            got[i][index[tup[i]]] += q
    for i in range(m):
        if got[i] != list(rows[i]):
            problems.append(f"coordinate {i} marginal differs from its input")
    return problems


def union_mass(mass: dict) -> Q:
    return sum((q * len(set(tup)) for tup, q in mass.items()), Q(0))


class Query:
    """``leakbound bound NET --targets T --method recursive --compare-exact
    --csv OUT``, run in-process through ``cli.main``."""

    name = "query"
    # (nodes, |X|, targets, nodes outside the targets' closure, ternary nodes)
    STRATA = (
        (6, 2, 2, 2, 1),
        (7, 3, 3, 2, 0),
        (8, 4, 2, 4, 0),
        (9, 2, 4, 4, 0),
        (10, 3, 2, 6, 0),
    )
    TAIL_PCT = 90
    TRACE_ROUNDS = 2

    def __init__(self, lb, seed: int, workdir: Path):
        self.lb, self.seed, self.workdir = lb, seed, workdir

    @classmethod
    def properties(cls) -> str:
        shares = ", ".join(f"{out / (n - 1):.2f}" for n, _, _, out, _ in cls.STRATA)
        return f"share of nodes outside the targets' closure by shape {shares}"

    def make(self, i: int) -> dict:
        rng = random.Random(f"{self.seed}/{self.name}/{i}")
        doc, targets = gen.couplable_network(rng, *self.STRATA[i % len(self.STRATA)])
        path = self.workdir / f"net-{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return {"path": str(path), "csv": str(self.workdir / f"out-{i}.csv"),
                "targets": targets}

    def run(self, op: dict):
        argv = ["bound", op["path"], "--targets", ",".join(op["targets"]),
                "--method", "recursive", "--compare-exact", "--csv", op["csv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lb.cli.main(argv)
        return code, out.getvalue()

    def check(self, op: dict, result) -> tuple[list[str], list[str]]:
        code, text = result
        problems = []
        bounds: dict[str, Q | None] = {}
        exact = set()
        with open(op["csv"], encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                if row["bound_method"]:
                    value = row["bound_value"]
                    bounds[row["bound_method"]] = (
                        None if value == "inapplicable" else Q(value))
                    exact.add(Q(row["exact_value"]))
        if len(exact) != 1 or set(bounds) != {"coupling", "doeblin", "subadditivity"}:
            return ["CSV report is missing bound rows"], []
        (exact_value,) = exact
        inapplicable = any(v is None for v in bounds.values())
        if code == 1:
            if not (inapplicable and "[FAIL]" in text and "= inapplicable" in text):
                problems.append("exit code 1 without a failed precondition")
        elif code != 0:
            problems.append(f"exit code {code}")
        elif inapplicable:
            problems.append("exit code 0 with a bound marked inapplicable")
        chain = [exact_value] + [bounds[k] for k in ("coupling", "doeblin", "subadditivity")]
        present = [v for v in chain if v is not None]
        if any(a > b for a, b in zip(present, present[1:])):
            problems.append("bound chain exact <= coupling <= doeblin <= baseline broken")
        if f"exact tau_max      = {fmt(exact_value)}\n" not in text:
            problems.append("printed exact tau_max differs from the CSV")
        golden = [fmt(exact_value), fmt(bounds["doeblin"]),
                  fmt(bounds["subadditivity"]), str(code)]
        return problems, golden


class Lp:
    """``min_union_coupling`` or ``min_union_coupling_diag``, the code that
    ``couple --mode lp [--diag]`` runs, on one PMF family."""

    name = "lp"
    # (marginals m, |Y|, diagonal pinned, couplable family): 81, 243 and
    # 256 tuple columns. m = 5, |Y| = 4 (1024 columns) is left out: single
    # solves there range over 5x around a 0.5 s median, in both forms,
    # which no 30-second run averages out. The m = 5 shapes fill the middle
    # of the round so that the median falls among them.
    STRATA = (
        (4, 3, False, True),
        (4, 3, True, False),
        (4, 3, False, False),
        (4, 3, True, True),
        (5, 3, False, False),
        (5, 3, True, True),
        (5, 3, False, True),
        (5, 3, True, False),
        (5, 3, False, True),
        (5, 3, True, False),
        (4, 4, False, False),
        (4, 4, True, True),
        (4, 4, False, True),
        (4, 4, True, False),
    )
    TAIL_PCT = 90
    TRACE_ROUNDS = 2

    def __init__(self, lb, seed: int, workdir: Path):
        self.lb, self.seed = lb, seed

    @classmethod
    def properties(cls) -> str:
        columns = ", ".join(str(size**m) for m, size, _, _ in cls.STRATA)
        return f"tuple columns by shape {columns}"

    def make(self, i: int) -> dict:
        rng = random.Random(f"{self.seed}/{self.name}/{i}")
        m, size, diag, couplable = self.STRATA[i % len(self.STRATA)]
        family = gen.couplable_family if couplable else gen.unconstrained_family
        rows = family(rng, m, size)
        symbols = [str(k) for k in range(size)]
        pmfs = [self.lb.Pmf.from_values(r, symbols) for r in rows]
        return {"rows": rows, "symbols": symbols, "pmfs": pmfs, "diag": diag}

    def run(self, op: dict):
        lp = self.lb.lp
        solver = lp.min_union_coupling_diag if op["diag"] else lp.min_union_coupling
        return solver(op["pmfs"])

    def check(self, op: dict, result) -> tuple[list[str], list[str]]:
        rows, symbols = op["rows"], op["symbols"]
        value = result.optimal_value
        t_max, t_max2 = gen.tau_max(rows), gen.tau_max2(rows)
        problems = []
        if value < t_max:
            problems.append(f"LP optimum {value} below tau_max {t_max}")
        if t_max2 <= 1 and value != t_max:
            problems.append(f"LP optimum {value} != tau_max {t_max} with tau_max2 <= 1")
        if result.achieves_tau_max != (value == t_max):
            problems.append("achieves_tau_max flag is wrong")
        mass = dict(result.witness.mass)
        problems += marginal_problems(mass, len(rows), rows, symbols)
        if union_mass(mass) != value:
            problems.append("witness union mass differs from the LP optimum")
        if op["diag"]:
            for k, y in enumerate(symbols):
                if mass.get((y,) * len(rows), Q(0)) != min(r[k] for r in rows):
                    problems.append(f"diagonal at {y!r} differs from the column minimum")
        return problems, [fmt(value)]


class Simul:
    """``build_simultaneous_coupling`` (m = 2, 3, 4) or ``build_n4_coupling``
    followed by ``verify_intersection_property``."""

    name = "simul"
    # (kind, m, |X|, Y shape); the Y alphabet is the product of the shape.
    STRATA = (
        ("simul", 2, 2, (2, 2)),
        ("simul", 3, 4, (2, 3)),
        ("simul", 4, 6, (3, 3)),
        ("simul", 2, 6, (3, 3, 3)),
        ("simul", 3, 3, (2, 2, 3)),
        ("simul", 4, 5, (2, 2, 2)),
        ("n4", 4, 0, (2, 2)),
        ("n4", 4, 0, (3, 3)),
        ("n4", 4, 0, (3, 3, 3)),
    )
    TAIL_PCT = 95
    TRACE_ROUNDS = 20

    def __init__(self, lb, seed: int, workdir: Path):
        self.lb, self.seed = lb, seed

    @classmethod
    def properties(cls) -> str:
        sizes = ", ".join(str(len(gen.product_alphabet(y))) for *_, y in cls.STRATA)
        return f"|Y| by shape {sizes}"

    def make(self, i: int) -> dict:
        rng = random.Random(f"{self.seed}/{self.name}/{i}")
        kind, m, x_size, y_shape = self.STRATA[i % len(self.STRATA)]
        if kind == "n4":
            ys = gen.product_alphabet(y_shape)
            rows = gen.couplable_family(rng, m, len(ys), sparse=True)
            pmfs = [self.lb.Pmf.from_values(r, ys) for r in rows]
            return {"kind": kind, "ys": ys, "rows": rows, "pmfs": pmfs}
        xs, ys, joints = gen.joint_family(rng, m, x_size, y_shape)
        sources = [
            self.lb.JointPmf(xs, ys, {(x, y): matrix[a][b]
                                      for a, x in enumerate(xs)
                                      for b, y in enumerate(ys) if matrix[a][b]})
            for matrix in joints
        ]
        return {"kind": kind, "xs": xs, "ys": ys, "joints": joints, "sources": sources}

    def run(self, op: dict):
        if op["kind"] == "n4":
            couplings = self.lb.couplings
            coupling = couplings.build_n4_coupling(op["pmfs"])
            return coupling, couplings.verify_intersection_property(coupling, op["pmfs"])
        return self.lb.simultaneous.build_simultaneous_coupling(op["sources"])

    def check(self, op: dict, result) -> tuple[list[str], list[str]]:
        if op["kind"] == "n4":
            return self._check_n4(op, *result)
        xs, ys, joints = op["xs"], op["ys"], op["joints"]
        m = len(joints)
        problems = []
        mass = dict(result.mass)
        if any(q < 0 for q in mass.values()) or sum(mass.values(), Q(0)) != 1:
            problems.append("coupling is not a probability law")
        xi = {x: a for a, x in enumerate(xs)}
        yi = {y: b for b, y in enumerate(ys)}
        got = [[[Q(0)] * len(ys) for _ in xs] for _ in range(m)]
        for (xt, yt), q in mass.items():
            for i in range(m):
                got[i][xi[xt[i]]][yi[yt[i]]] += q
        for i in range(m):
            if got[i] != joints[i]:
                problems.append(f"joint marginal {i} differs from its source")
        y_rows = [[sum(col, Q(0)) for col in zip(*matrix)] for matrix in joints]
        t_max = gen.tau_max(y_rows)
        if sum((q * len(set(yt)) for (_, yt), q in mass.items()), Q(0)) != t_max:
            problems.append("Y-union mass differs from tau_max")
        c_xy = sum((min(matrix[a][b] for matrix in joints)
                    for a in range(len(xs)) for b in range(len(ys))), Q(0))
        c_y = sum((min(col) for col in zip(*y_rows)), Q(0))
        if (result.c_xy, result.c_y) != (c_xy, c_y):
            problems.append("c_xy or c_y differs from the cellwise minima")
        return problems, [fmt(result.c_xy), fmt(result.c_y), fmt(t_max)]

    def _check_n4(self, op: dict, coupling, reported_ok: bool):
        rows, ys = op["rows"], op["ys"]
        mass = dict(coupling.mass)
        problems = marginal_problems(mass, 4, rows, ys)
        t_max = gen.tau_max(rows)
        if union_mass(mass) != t_max:
            problems.append("union mass differs from tau_max")
        index = {y: k for k, y in enumerate(ys)}
        subsets = [s for size in (2, 3, 4) for s in combinations(range(4), size)]
        tied: dict[tuple, Q] = {}
        for tup, q in mass.items():
            for s in subsets:
                if all(tup[i] == tup[s[0]] for i in s):
                    key = (s, tup[s[0]])
                    tied[key] = tied.get(key, Q(0)) + q
        holds = all(
            tied.get((s, y), Q(0)) == min(rows[i][index[y]] for i in s)
            for s in subsets for y in ys
        )
        if not holds:
            problems.append("intersection property fails")
        if reported_ok is not holds:
            problems.append("verify_intersection_property disagrees")
        return problems, [fmt(t_max)]


WORKLOADS = {w.name: w for w in (Query, Lp, Simul)}
