"""Self-tests of the benchmark: determinism, checkers, tracing wrappers.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction as Q
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import speed

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 2


@pytest.fixture(scope="module")
def lb():
    return run.import_library()


def make(lb, name: str, seed: int, tmp: Path):
    wl = workloads.WORKLOADS[name](lb, seed, tmp)
    return wl, [wl.make(i) for i in range(ROUNDS * len(wl.STRATA))]


def serialized(name: str, ops: list) -> bytes:
    if name == "query":
        return b"".join(Path(op["path"]).read_bytes() for op in ops)
    keys = ("rows", "joints", "diag", "kind", "symbols", "xs", "ys")
    return json.dumps([{k: op[k] for k in keys if k in op} for op in ops],
                      default=str).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(lb, tmp_path, name):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = serialized(name, make(lb, name, 7, a)[1])
    again = serialized(name, make(lb, name, 7, b)[1])
    other = serialized(name, make(lb, name, 8, c)[1])
    assert first == again
    assert first != other


def test_golden_values_cover_whole_rounds():
    golden = json.loads(run.GOLDEN.read_text())
    for name, wl in workloads.WORKLOADS.items():
        assert len(golden[name]) >= 10 * len(wl.STRATA)
        assert len(golden[name]) % len(wl.STRATA) == 0


def first_op(lb, tmp_path, name: str, index: int = 0):
    wl = workloads.WORKLOADS[name](lb, 0, tmp_path)
    op = wl.make(index)
    return wl, op, wl.run(op)


def rewrite_csv(path: str, method: str, value: str) -> None:
    lines = Path(path).read_text().splitlines()
    for k, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) > 5 and cells[4] == method:
            cells[5] = value
            lines[k] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_query_check_flags_a_bound_below_exact(lb, tmp_path):
    wl, op, result = first_op(lb, tmp_path, "query")
    problems, values = wl.check(op, result)
    assert problems == []
    exact = Q(values[0])
    rewrite_csv(op["csv"], "doeblin", str(exact - Q(1, exact.denominator)))
    assert any("chain" in p for p in wl.check(op, result)[0])


def test_query_check_flags_unexpected_exit_codes(lb, tmp_path):
    wl, op, (code, text) = first_op(lb, tmp_path, "query")
    assert wl.check(op, (2, text))[0]
    assert wl.check(op, (1, text))[0]  # exit 1 needs a failed precondition


def test_lp_check_flags_an_optimum_off_by_one_over_den(lb, tmp_path):
    wl, op, result = first_op(lb, tmp_path, "lp")
    assert wl.check(op, result)[0] == []
    value = result.optimal_value
    off = replace(result, optimal_value=value + Q(1, value.denominator))
    assert wl.check(op, off)[0]


def test_lp_check_flags_a_witness_with_wrong_marginals(lb, tmp_path):
    wl, op, result = first_op(lb, tmp_path, "lp", index=1)  # diagonal-pinned
    mass = dict(result.witness.mass)
    (a, qa), (b, qb) = sorted(mass.items())[:2]
    mass[a], mass[b] = qb, qa
    assert wl.check(op, replace(result, witness=SimpleNamespace(mass=mass)))[0]


def test_simul_check_flags_wrong_constants_and_marginals(lb, tmp_path):
    wl, op, result = first_op(lb, tmp_path, "simul", index=2)
    assert wl.check(op, result)[0] == []
    assert wl.check(op, replace(result, c_xy=result.c_xy + Q(1, 97)))[0]
    mass = dict(result.mass)
    key = next(iter(mass))
    mass[key] += Q(1, 97)
    assert wl.check(op, replace(result, mass=mass))[0]


def test_n4_check_flags_a_broken_intersection_property(lb, tmp_path):
    wl, op, (coupling, ok) = first_op(lb, tmp_path, "simul", index=8)
    assert op["kind"] == "n4" and ok
    assert wl.check(op, (coupling, ok))[0] == []
    assert wl.check(op, (coupling, False))[0]  # disagrees with the library

    # The product of the marginals keeps every marginal but ties no
    # coordinates beyond chance.
    ys, rows = op["ys"], op["rows"]
    supports = [[(y, row[k]) for k, y in enumerate(ys) if row[k]] for row in rows]

    fake = SimpleNamespace(mass={})
    for cells in product(*supports):
        fake.mass[tuple(y for y, _ in cells)] = (
            cells[0][1] * cells[1][1] * cells[2][1] * cells[3][1])
    assert "intersection property fails" in wl.check(op, (fake, True))[0]


def test_run_counts_a_golden_mismatch_as_failed(lb, tmp_path):
    wl, op, result = first_op(lb, tmp_path, "lp")
    tally = run.Run(wl, [["0/1"]], speed.SpeedClock())
    tally.op(0, op)
    assert (tally.attempted, tally.failed) == (1, 1)
    tally = run.Run(wl, [wl.check(op, result)[1]], speed.SpeedClock())
    tally.op(0, op)
    assert tally.failed == 0


def snapshot() -> dict:
    return {(mod.__name__, attr): value
            for mod in tracing.library_modules()
            for attr, value in vars(mod).items()}


def test_wrappers_are_installed_everywhere_and_removed_cleanly(lb):
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import leakbound.bounds
        import leakbound.simultaneous

        assert leakbound.bounds.composite_channel is not before[
            ("leakbound.bounds", "composite_channel")]
        assert leakbound.bounds.composite_channel is leakbound.bayesnet.composite_channel
        assert leakbound.simultaneous.min_union_coupling_diag is leakbound.lp.min_union_coupling_diag
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["bounds.query_report", 0.0, 10.0, -1],
        ["bayesnet.composite_channel", 1.0, 7.0, 0],
        ["bayesnet.joint_distribution", 2.0, 5.0, 1],
        ["measures.tau_max", 8.0, 9.0, 0],
    ]
    selfs = tracer.self_times()
    assert selfs == {"bounds.query_report": 3.0, "bayesnet.composite_channel": 3.0,
                     "bayesnet.joint_distribution": 3.0, "measures.tau_max": 1.0}
    metrics = tracer.metrics()
    assert metrics["bayesnet.self_s"] == 6.0 and metrics["bounds.self_s"] == 3.0


def test_traced_counts_on_one_query(lb, tmp_path):
    wl, op, _ = first_op(lb, tmp_path, "query")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = wl.run(op)
    finally:
        tracer.uninstall()
    assert wl.check(op, result)[0] == []
    m = tracer.metrics()
    assert m["cli.calls"] == m["bounds.query_report.calls"] == 1
    assert m["bayesnet.joint_distribution.calls"] > m["bayesnet.composite_channel.calls"] > 0
    assert 0 < m["bayesnet.joint_distribution.distinct_ratio"] < 1
    assert m["lp.solve_sparse.calls"] == 0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
