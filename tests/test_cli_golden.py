"""Replay of frozen CLI outputs.

``fixtures/cli_golden.json`` holds one record per CLI run: its argv, the
network documents it reads that are not fixture files, and the exit code,
stdout, stderr and written CSV that the run produced when the record was
taken. Paths appear as ``{fixtures}`` and ``{tmp}``. The cases are

* ``bound --compare-exact --csv`` for every target subset and all three
  methods of the eleven network fixtures, except the source alone under
  the recursive method, which the recursion refuses (tested in
  ``test_bounds.py`` and ``test_cli.py``);
* seeded generated networks with |X| = 2..5, each at the default and at
  a small ``--max-states``;
* three peel shapes at the four-way boundary of ``wide_v4.json``
  (|X| = 4): a single peel whose V-side has tau_max2 > 1 and passes the
  four-way condition with slack 0, a passing recursion through such a
  step, and a recursion refused with a negative slack;
* ``sweep`` on both templates;
* ``couple`` in every mode, with and without ``--diag`` and ``--dump``,
  on the PMF fixtures.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from helpers import rand_couplable_net, rand_net

from leakbound.cli import main
from leakbound.netfile import network_document

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
NETS = ["bad_rowsum", "chain", "coprime", "coprime3", "coprime4", "cyclic", "diamond", "random1",
        "random2", "relay", "star5"]
PMF_FILES = ["coprime_joints", "joints_pair", "pmfs_bland", "pmfs_cycle3", "pmfs_n4"]


def fixture_cases() -> list[dict]:
    cases = []
    for name in NETS:
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        ids = [node["id"] for node in doc["nodes"]]
        for k in range(1, len(ids) + 1):
            for targets in itertools.combinations(ids, k):
                for method in ("recursive", "coupling", "doeblin"):
                    if targets == (doc["source"],) and method == "recursive":
                        continue
                    cases.append({"argv": [
                        "bound", f"{{fixtures}}/{name}.json",
                        "--targets", ",".join(targets), "--method", method,
                        "--compare-exact", "--csv", "{tmp}/out.csv",
                    ]})
    return cases


def generated_cases() -> list[dict]:
    rng = random.Random(2024)
    cases = []
    for k in range(60):
        x_size = 2 + k % 4
        if x_size < 5 and k % 2:
            net = rand_couplable_net(rng, rng.randrange(3, 6), x_size=x_size)
        else:
            net = rand_net(rng, n_nodes=rng.randrange(3, 6), max_alphabet=3,
                           x_size=x_size)
        ids = [nid for nid in net.node_ids() if nid != net.source]
        targets = ",".join(rng.sample(ids, rng.randrange(1, min(4, len(ids)) + 1)))
        method = ("recursive", "coupling", "doeblin")[k % 3]
        for limit in ([], ["--max-states", str(rng.choice((8, 16, 32, 64)))]):
            cases.append({
                "files": {"net.json": json.dumps(network_document(net))},
                "argv": [
                    "bound", "{tmp}/net.json", "--targets", targets,
                    "--method", method, "--compare-exact",
                    "--csv", "{tmp}/out.csv", *limit,
                ],
            })
    return cases


def wide_v4_cases() -> list[dict]:
    runs = [("N3,N5", "coupling"), ("N3,N4,N6", "recursive"), ("N3,N6", "recursive")]
    return [
        {"argv": ["bound", "{fixtures}/wide_v4.json", "--targets", targets,
                  "--method", method, "--compare-exact"]}
        for targets, method in runs
    ]


def sweep_cases() -> list[dict]:
    runs = [
        ("chain_template", "0:1/2:1/8", "Y2"),
        ("chain_template", "0:1/2:1/8", "Y1,Y2"),
        ("chain_template", "0:2:1/2", "Y1,Y2"),
        ("relay_template", "1/8:3/8:1/8", "Y1,Y2"),
        ("relay_template", "0:1/2:1/16", "Z,Y2"),
        ("relay_template", "0:1/2:1/4", "Y1,Z,Y2"),
    ]
    cases = []
    for name, span, targets in runs:
        argv = ["sweep", f"{{fixtures}}/{name}.json", "--param", "d",
                "--range", span, "--targets", targets]
        cases.append({"argv": argv})
        cases.append({"argv": argv + ["--out", "{tmp}/out.csv"]})
    return cases


def couple_cases() -> list[dict]:
    return [
        {"argv": ["couple", f"{{fixtures}}/{name}.json", "--mode", mode,
                  *diag, *dump]}
        for name in PMF_FILES
        for mode in ("lp", "n4", "simul")
        for diag in ([], ["--diag"])
        for dump in ([], ["--dump"])
    ]


def all_cases() -> list[dict]:
    return (fixture_cases() + generated_cases() + wide_v4_cases() + sweep_cases()
            + couple_cases())


def run_case(case: dict) -> dict:
    """Run one case in a fresh temporary directory; paths normalised."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case.get("files", {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [
            a.replace("{fixtures}", str(FIXTURES)).replace("{tmp}", tmp)
            for a in case["argv"]
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = Path(tmp, "out.csv")
        csv_text = written.read_text(encoding="utf-8") if written.exists() else None

    def normal(text):
        return text.replace(tmp, "{tmp}").replace(str(FIXTURES), "{fixtures}")

    return {"exit": code, "stdout": normal(out.getvalue()),
            "stderr": normal(err.getvalue()), "csv": csv_text}


def record() -> None:
    cases = [dict(case, **run_case(case)) for case in all_cases()]
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize("start", range(0, len(GOLDEN_CASES), 50))
def test_replay(start):
    for case in GOLDEN_CASES[start:start + 50]:
        want = {key: case[key] for key in ("exit", "stdout", "stderr", "csv")}
        assert run_case(case) == want, " ".join(case["argv"])


if __name__ == "__main__":
    sys.exit(record())
