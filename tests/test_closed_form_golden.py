"""Replay of frozen closed-form couplings.

``fixtures/closed_form_golden.json`` holds one record per call of a
closed form: the form, its input rows, and either the exact masses it
built (sorted by tuple, each as ``[tuple, "num/den"]``) or the refusal it
raised (``[condition, "value"]``). The forms are ``maximal_coupling_pair``
(m = 2) and ``three_way_coupling`` (m = 3), both the interval coupling,
``build_n4_coupling`` (m = 4) and ``independent_coupling`` (m = 2..4),
on seeded families with |Y| = 2..5: dense rows, sparse rows, rows built
to pass tau_max2 <= 1 and rows drawn to fail it, so that both builds and
refusals of the three- and four-way forms occur.

Re-record (only for an intended output change) with
``PYTHONPATH=src python tests/test_closed_form_golden.py``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from helpers import (
    DENOMINATORS,
    alphabet,
    rand_family,
    rand_family_tau_max2_le1,
    rand_partition,
)

from leakbound import (
    DiscreteChannel,
    Pmf,
    PreconditionError,
    build_n4_coupling,
    independent_coupling,
    maximal_coupling_pair,
    tau_max2,
    three_way_coupling,
)

GOLDEN = Path(__file__).parent / "fixtures" / "closed_form_golden.json"

FORMS = {
    "pair": lambda fam: maximal_coupling_pair(*fam),
    "three_way": lambda fam: three_way_coupling(*fam),
    "n4": build_n4_coupling,
    "independent": independent_coupling,
}
ARITY = {"pair": (2,), "three_way": (3,), "n4": (4,), "independent": (2, 3, 4)}


def rand_sparse_family(rng: random.Random, m: int, size: int) -> list[Pmf]:
    """m rows, each on a random support of 1..size symbols."""
    den = rng.choice(DENOMINATORS)
    rows = []
    for _ in range(m):
        spots = rng.sample(range(size), rng.randrange(1, size + 1))
        parts = dict(zip(spots, rand_partition(rng, len(spots), den)))
        row = [parts.get(k, Q(0)) for k in range(size)]
        rows.append(Pmf.from_values(row, alphabet(size)))
    return rows


def rand_family_tau_max2_gt1(rng: random.Random, m: int, size: int) -> list[Pmf]:
    """Rows near a shared base, redrawn until tau_max2 > 1 (at most 50
    draws; m = 2, and m = 3 on two symbols, never get there)."""
    for _ in range(50):
        den = rng.choice(DENOMINATORS)
        base = rand_partition(rng, size, den)
        fam = [
            Pmf.from_values(
                [(3 * b + n) / 4 for b, n in zip(base, rand_partition(rng, size, den))],
                alphabet(size),
            )
            for _ in range(m)
        ]
        if tau_max2(DiscreteChannel(fam)) > 1:
            break
    return fam


KINDS = {
    "couplable": rand_family_tau_max2_le1,
    "dense": rand_family,
    "sparse": rand_sparse_family,
    "wide": rand_family_tau_max2_gt1,
}


def cases() -> list[dict]:
    rng = random.Random(1010)
    out = []
    for form, arities in ARITY.items():
        for m in arities:
            for size in range(2, 6):
                for kind, make in KINDS.items():
                    for k in range(2 if form == "independent" else 4):
                        fam = make(rng, m, size)
                        out.append({
                            "name": f"{form}/m{m}/y{size}/{kind}/{k}",
                            "form": form,
                            "rows": [[str(q) for q in p.values()] for p in fam],
                        })
    return out


def family(case: dict) -> list[Pmf]:
    size = len(case["rows"][0])
    return [Pmf.from_values([Q(v) for v in row], alphabet(size)) for row in case["rows"]]


def outcome(case: dict) -> dict:
    try:
        coupling = FORMS[case["form"]](family(case))
    except PreconditionError as err:
        return {"refusal": [err.condition, str(err.value)]}
    return {"mass": [[list(t), str(q)] for t, q in sorted(coupling.mass.items())]}


def record() -> None:
    records = [dict(case, **outcome(case)) for case in cases()]
    lines = ",\n".join(json.dumps(r) for r in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize("form", list(FORMS))
def test_replay(form):
    replayed = [case for case in GOLDEN_CASES if case["form"] == form]
    assert replayed
    for case in replayed:
        want = {key: case[key] for key in ("mass", "refusal") if key in case}
        assert outcome(case) == want, case["name"]


def test_fixture_covers_builds_and_refusals():
    # The inputs are the seeded families above, and the three- and
    # four-way forms are exercised on both sides of their conditions.
    assert [{k: c[k] for k in ("name", "form", "rows")} for c in GOLDEN_CASES] == cases()
    for form in ("three_way", "n4"):
        kinds = {"refusal" in c for c in GOLDEN_CASES if c["form"] == form}
        assert kinds == {True, False}, form


if __name__ == "__main__":
    sys.exit(record())
