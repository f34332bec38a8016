"""Seeded malformed-input fuzz of the CLI.

Each case copies a fixture document, breaks it in one way that makes it
invalid (a field dropped, retyped or duplicated, a probability that is
not a number or is negative, a row of the wrong length, an unknown
parent, a cycle, a boolean alphabet) and runs ``bound``, ``sweep`` or
``couple`` on it in-process. Every run must end in exit code 1, 2 or 3
with a message, never in an exception escaping ``main``. So must a
``bound`` whose inference hands the channel a broken integer law.
"""

import copy
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from leakbound import bayesnet
from leakbound.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CASES_PER_DOCUMENT = 24

# fixture -> the argv after the path
NETWORKS = {
    "chain.json": ["bound", "--targets", "Y1,Y2"],
    "relay.json": ["bound", "--targets", "Y1,Y2"],
    "diamond.json": ["bound", "--targets", "Y1,Y2,Y3"],
    "random1.json": ["bound", "--targets", "N2,N3"],
    "random2.json": ["bound", "--targets", "N2,N3"],
    "chain_template.json": ["sweep", "--param", "d", "--range", "1/8:1/4:1/8",
                            "--targets", "Y1,Y2"],
    "relay_template.json": ["sweep", "--param", "d", "--range", "1/8:1/4:1/8",
                            "--targets", "Y1,Y2"],
}
PMF_DOCUMENTS = {
    "pmfs_n4.json": ["couple", "--mode", "n4"],
    "pmfs_cycle3.json": ["couple", "--mode", "lp", "--diag"],
    "joints_pair.json": ["couple", "--mode", "simul"],
}

NOT_A_NUMBER = ["abc", "1/0", None, [], {}, True, 0.25, "", "1//2"]


def wrong_type(value):
    """A JSON value of another kind than ``value``."""
    if isinstance(value, list):
        return {"0": value}
    if isinstance(value, str):
        return [value]
    return "x"


def bad_probability(rng, row: list) -> None:
    """One entry of ``row`` not a number, or negative with the row still
    summing to what it did."""
    k = rng.randrange(len(row))
    if rng.random() < 0.5 or len(row) < 2:
        row[k] = rng.choice(NOT_A_NUMBER)
        return
    other = (k + 1) % len(row)
    try:
        row[other] = str(Fraction(row[other]) + Fraction(row[k]) + Fraction(1, 4))
    except ValueError:  # a sweep template's expression
        row[other] = f"({row[other]}) + ({row[k]}) + 1/4"
    row[k] = "-1/4"


def wrong_length(rng, row: list) -> None:
    if rng.random() < 0.5:
        row.append("0")
    else:
        row.pop()


def boolean_alphabet(rng, size: int):
    """A JSON boolean in place of the alphabet, or as its symbols."""
    if rng.random() < 0.5:
        return rng.choice([True, False])
    return [k % 2 == 1 for k in range(size)]


def mutate_network(rng, doc: dict) -> str:
    """Break a network document in one way; returns what was done."""
    nodes = doc["nodes"]
    inner = [n for n in nodes if n.get("parents")]
    node = rng.choice(inner)
    kind = rng.choice(["drop", "retype", "duplicate", "probability", "length",
                       "unknown parent", "cycle", "boolean alphabet"])
    if kind == "drop":
        where, key = rng.choice([(doc, "nodes"), (doc, "source"), (node, "id"),
                                 (node, "alphabet"), (node, "cpt"), (node, "parents")])
        del where[key]
    elif kind == "retype":
        where, key = rng.choice([(doc, "nodes"), (node, "alphabet"), (node, "cpt"),
                                 (node, "parents"), (rng.choice(node["cpt"]), None)])
        if key is None:  # a cpt row that is not a list
            node["cpt"][node["cpt"].index(where)] = "1/2"
        else:
            where[key] = wrong_type(where[key])
        key = key or "cpt row"
    elif kind == "duplicate":
        key = rng.choice(["node", "symbol"])
        if key == "node":
            nodes.append(copy.deepcopy(node))
        else:
            node["alphabet"].append(node["alphabet"][0])
            for row in node["cpt"]:
                row.append("0")
    elif kind == "probability":
        bad_probability(rng, rng.choice(node["cpt"]))
        key = node["id"]
    elif kind == "length":
        wrong_length(rng, rng.choice(node["cpt"]))
        key = node["id"]
    elif kind == "unknown parent":
        node["parents"][rng.randrange(len(node["parents"]))] = "Ghost"
        key = node["id"]
    elif kind == "cycle":
        # Replace a parent by the node itself or by one of its children.
        children = [n["id"] for n in nodes if node["id"] in n.get("parents", [])]
        node["parents"][rng.randrange(len(node["parents"]))] = rng.choice(
            children + [node["id"]])
        key = node["id"]
    else:
        key = rng.choice([doc["source"], node["id"]])
        target = next(n for n in nodes if n["id"] == key)
        target["alphabet"] = boolean_alphabet(rng, len(target["alphabet"]))
    return f"{kind} {key}"


def mutate_pmfs(rng, doc: dict) -> str:
    """Break a PMF document ("pmfs" or "joints") in one way."""
    if "pmfs" in doc:
        alphabets, rows = ["alphabet"], doc["pmfs"]
    else:
        alphabets, rows = ["x_alphabet", "y_alphabet"], [r for m in doc["joints"] for r in m]
    collection = "pmfs" if "pmfs" in doc else "joints"
    kind = rng.choice(["drop", "retype", "duplicate", "probability", "length",
                       "boolean alphabet", "arity"])
    if kind == "drop":
        key = rng.choice(alphabets + [collection])
        del doc[key]
    elif kind == "retype":
        key = rng.choice(alphabets + [collection])
        doc[key] = wrong_type(doc[key])
    elif kind == "duplicate":
        key = alphabets[-1]
        doc[key].append(doc[key][0])
        for row in rows:
            row.append("0")
    elif kind == "probability":
        key = collection
        bad_probability(rng, rng.choice(rows))
    elif kind == "length":
        key = collection
        wrong_length(rng, rng.choice(rows))
    elif kind == "boolean alphabet":
        key = rng.choice(alphabets)
        doc[key] = boolean_alphabet(rng, len(doc[key]))
    else:
        # Too few marginals for the mode: one, or none at all.
        key = collection
        del doc[collection][rng.randrange(2):]
    return f"{kind} {key}"


def cases():
    for name, argv in list(NETWORKS.items()) + list(PMF_DOCUMENTS.items()):
        mutate = mutate_network if name in NETWORKS else mutate_pmfs
        yield pytest.param(name, argv, mutate, id=name)


@pytest.mark.parametrize("name, argv, mutate", cases())
def test_malformed_input_exits_with_a_message(name, argv, mutate, capsys, tmp_path):
    original = json.loads((FIXTURES / name).read_text())
    failures = []
    kinds = set()
    for i in range(CASES_PER_DOCUMENT):
        rng = random.Random(f"{name}/{i}")
        doc = copy.deepcopy(original)
        what = mutate(rng, doc)
        kinds.add(what.split()[0])
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        try:
            code = main([argv[0], str(path)] + argv[1:])
        except BaseException as err:  # a traceback: record it, keep going
            code = f"raised {err!r}"
        out = capsys.readouterr()
        message = (out.out + out.err).strip()
        if code not in (1, 2, 3) or not message or "Traceback" in message:
            failures.append((i, what, code, message[-200:]))
    assert not failures, failures
    assert len(kinds) >= 5


def _first_column(columns: dict, edit) -> dict:
    """The law with its first column edited."""
    first = next(iter(columns))
    return {**columns, first: edit(list(columns[first]))}


# A fault in the integer law that inference hands to
# ``DiscreteChannel.from_law``: (edit of the columns, message fragment).
BROKEN_LAWS = {
    "negative": (lambda cols: _first_column(cols, lambda col: [-1] + col[1:]),
                 "negative mass -1/"),
    "row-sum": (lambda cols: _first_column(cols, lambda col: [col[0] + 1] + col[1:]),
                "row 0 masses sum to "),
    "unknown": (lambda cols: {**cols, ("ghost",): [1] * len(next(iter(cols.values())))},
                "mass at unknown cell ('ghost',)"),
}


@pytest.mark.parametrize("case", BROKEN_LAWS)
def test_broken_integer_law_exits_with_a_message(case, monkeypatch, capsys):
    # The channel checks a law given on integers as it checks Pmf rows: a
    # fault ends in exit 1 with the refusal's message, not a traceback.
    edit, fragment = BROKEN_LAWS[case]
    projected = bayesnet._projected

    def broken(*args):
        den, columns = projected(*args)
        return den, edit(columns)

    monkeypatch.setattr(bayesnet, "_projected", broken)
    code = main(["bound", str(FIXTURES / "chain.json"), "--targets", "Y1,Y2"])
    out = capsys.readouterr()
    message = out.out + out.err
    assert code == 1, message
    assert fragment in message and "Traceback" not in message


# Two coprime denominators of 2,201 digits: a row of 1/A and 1/B sums to
# a fraction whose denominator has 4,401 digits, more than str() writes.
BIG_A, BIG_B = 10**2200 + 1, 10**2200 + 3


def _chain_with_row(row) -> str:
    doc = json.loads((FIXTURES / "chain.json").read_text())
    doc["nodes"][1]["cpt"][0] = row
    return json.dumps(doc)


def _template_with_entry(entry) -> str:
    doc = json.loads((FIXTURES / "chain_template.json").read_text())
    doc["nodes"][1]["cpt"][0] = [entry, "1 - d"]
    return json.dumps(doc)


SWEEP = ["sweep", "--param", "d", "--targets", "Y1,Y2", "--range"]
# (document text, argv after the path, exit code, a fragment of the message)
OVERSIZED = {
    "exponent-validate": (_chain_with_row(["1e-10000000", "1"]), ["validate"], 1,
                          "more than 4300 digits"),
    "exponent-bound": (_chain_with_row(["1e-3000000", "1"]),
                       ["bound", "--targets", "Y1,Y2"], 1, "more than 4300 digits"),
    "exponent-template": (_template_with_entry("1e-99999999"), SWEEP + ["0:1/2:1/4"], 1,
                          "more than 4300 digits"),
    "json-integer": (_chain_with_row(["N", "1"]).replace('"N"', "1" * 5000),
                     ["validate"], 1, "not valid JSON"),
    "row-sum": (_chain_with_row([f"1/{BIG_A}", f"1/{BIG_B}"]), ["validate"], 1,
                "-bit integer>"),
    "mass-sum": (json.dumps({"alphabet": ["a", "b"],
                             "pmfs": [[f"1/{BIG_A}", f"1/{BIG_B}"]] * 2}),
                 ["couple", "--mode", "lp"], 1, "masses sum to"),
    "range-step": ((FIXTURES / "chain_template.json").read_text(),
                   SWEEP + ["0:1:1e-5000"], 1, "more than 4300 digits"),
    "range-count": ((FIXTURES / "chain_template.json").read_text(),
                    SWEEP + ["0:9e4299:1e-4299"], 2, "-bit integer> sweep values"),
}


@pytest.mark.parametrize("case", OVERSIZED)
def test_oversized_numbers_exit_with_a_message(case, capsys, tmp_path):
    # A literal that would expand to more than 4300 digits is refused
    # before it is expanded; a computed value that long is abbreviated in
    # the message instead of raising from str().
    text, argv, expected, fragment = OVERSIZED[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    start = time.perf_counter()
    code = main([argv[0], str(path)] + argv[1:])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    message = out.out + out.err
    assert code == expected, message[-300:]
    assert fragment in message and "Traceback" not in message
    assert elapsed < 1, elapsed
