"""Replay of frozen bounds-API results.

``fixtures/bounds_golden.json`` holds one record per query: a network
(a fixture name, or the document of a seeded network), a target list, a
``max_states`` (null for the default) and, with every exact value written
as a string,

* ``query_report`` under each of the methods "recursive", "coupling" and
  "doeblin": the query line, the exact value, the three bound values, the
  precondition log and every field of every trace step;
* ``recursive_bound`` under each of the methods "doeblin", "coupling" and
  "baseline": the value and the trace;
* ``coupling_bound`` and ``doeblin_bound`` on the single peel of the
  targets (the topologically last target other than the source, off the
  rest), when that peel has a non-empty V: the value.

A call that raises records the error's type and message instead; a
``PreconditionError`` also records its condition, its value and the
steps before the failure in its ``trace``.

The queries are every target subset of the valid network fixtures, the
source included (so the single peel may keep it in V), three queries on
``wide_v4.json`` (whose first coupling peel has a wide V-side), and seeded
``rand_net`` and ``rand_couplable_net`` queries with |X| = 2..5, every
other one at a small ``max_states``.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_bounds_golden.py``.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from helpers import rand_couplable_net, rand_net

from leakbound import bounds
from leakbound.bayesnet import topological_sort
from leakbound.errors import LeakboundError, PreconditionError
from leakbound.netfile import network_document, parse_network

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "bounds_golden.json"
NETS = ["chain", "coprime", "coprime3", "coprime4", "diamond", "one_symbol_source",
        "random1", "random2", "relay", "star5"]


def step_record(step) -> dict:
    return {
        "u": step.u,
        "v_set": list(step.v_set),
        "adjoined": list(step.adjoined),
        "tau_max_u": str(step.tau_max_u),
        "penalty": str(step.penalty),
        "preconditions": [list(p) for p in step.preconditions],
    }


def outcome(call) -> dict:
    """The call's result, or the error it raised."""
    try:
        return {"result": call()}
    except LeakboundError as err:
        out = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, PreconditionError):
            out.update(
                condition=err.condition,
                value=None if err.value is None else str(err.value),
                trace=[step_record(s) for s in err.trace],
            )
        return out


def optional(value) -> str | None:
    return None if value is None else str(value)


def report_record(report) -> dict:
    return {
        "query": report.query,
        "exact": str(report.exact_tau_max),
        "coupling": optional(report.coupling_bound_value),
        "doeblin": optional(report.doeblin_bound_value),
        "baseline": optional(report.subadditivity_value),
        "precondition_log": [list(p) for p in report.precondition_log],
        "trace": [step_record(s) for s in report.trace],
    }


def single_peel(net, targets):
    """(V, U) of the single peel of the targets, or None when V is empty."""
    position = {nid: k for k, nid in enumerate(topological_sort(net))}
    ordered = sorted(set(targets), key=position.get)
    u = next((t for t in reversed(ordered) if t != net.source), None)
    v_set = [t for t in ordered if t != u]
    return (v_set, u) if u is not None and v_set else None


def evaluate(case: dict) -> dict:
    """Every bounds-API result of one query, each on a freshly parsed net."""
    if "fixture" in case:
        text = (FIXTURES / f"{case['fixture']}.json").read_text()
    else:
        text = case["document"]
    targets = case["targets"]
    kw = {} if case["max_states"] is None else {"max_states": case["max_states"]}
    out = {}
    for method in ("recursive", "coupling", "doeblin"):
        net = parse_network(text)
        out[f"query_report/{method}"] = outcome(
            lambda: report_record(bounds.query_report(net, targets, method, **kw))
        )
    for method in ("doeblin", "coupling", "baseline"):
        net = parse_network(text)

        def recursive():
            value, trace = bounds.recursive_bound(net, targets, method, **kw)
            return {"value": str(value), "trace": [step_record(s) for s in trace]}

        out[f"recursive_bound/{method}"] = outcome(recursive)
    peel = single_peel(parse_network(text), targets)
    if peel is not None:
        for name in ("coupling_bound", "doeblin_bound"):
            net = parse_network(text)
            entry = getattr(bounds, name)
            out[name] = outcome(lambda: str(entry(net, *peel, **kw)))
    return out


def fixture_cases() -> list[dict]:
    cases = []
    for name in NETS:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        ids = [node["id"] for node in doc["nodes"]]
        for k in range(1, len(ids) + 1):
            for targets in itertools.combinations(ids, k):
                cases.append({"fixture": name, "targets": list(targets), "max_states": None})
    wide = ["X", "N1", "N2", "N3", "N4", "N5", "N6"]
    for targets in (wide, wide[1:], wide[:4]):
        cases.append({"fixture": "wide_v4", "targets": targets, "max_states": None})
    return cases


def generated_cases() -> list[dict]:
    rng = random.Random(2026)
    cases = []
    for k in range(100):
        x_size = 2 + k % 4
        if x_size < 5 and k % 2:
            net = rand_couplable_net(rng, rng.randrange(3, 7), x_size=x_size)
        else:
            net = rand_net(rng, n_nodes=rng.randrange(3, 6), max_alphabet=3,
                           x_size=x_size, noisy=rng.random() < 0.5)
        ids = [nid for nid in net.node_ids() if nid != net.source]
        targets = rng.sample(ids, rng.randrange(1, min(4, len(ids)) + 1))
        if k % 4 == 3:
            targets.insert(rng.randrange(len(targets) + 1), net.source)
        limit = rng.choice((8, 16, 32, 64)) if k % 2 else None
        cases.append({"document": json.dumps(network_document(net)),
                      "targets": targets, "max_states": limit})
    return cases


def record() -> None:
    cases = [dict(case, **evaluate(case)) for case in fixture_cases() + generated_cases()]
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
INPUTS = ("fixture", "document", "targets", "max_states")


@pytest.mark.parametrize("start", range(0, len(GOLDEN_CASES), 50))
def test_replay(start):
    for case in GOLDEN_CASES[start:start + 50]:
        want = {key: value for key, value in case.items() if key not in INPUTS}
        assert evaluate(case) == want, (case.get("fixture"), case["targets"])


def test_golden_covers_the_source_in_v_and_partial_traces():
    # The single peel keeps the source in V on some fixture queries, and
    # some recursive failures carry a non-empty partial trace.
    source_in_v = sum(
        "fixture" in case and "X" in case["targets"] and len(case["targets"]) > 1
        for case in GOLDEN_CASES
    )
    partial = sum(
        bool(case[f"recursive_bound/{method}"].get("trace"))
        and "error" in case[f"recursive_bound/{method}"]
        for case in GOLDEN_CASES for method in ("doeblin", "coupling")
    )
    assert len(GOLDEN_CASES) >= 200 and source_in_v >= 40 and partial >= 2


if __name__ == "__main__":
    sys.exit(record())
