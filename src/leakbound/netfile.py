"""Network and PMF file handling (JSON, exact probabilities).

A network file looks like:

    {
      "format_version": 1,
      "source": "X",
      "nodes": [
        {"id": "X", "alphabet": 2, "parents": []},
        {"id": "Y", "alphabet": ["0", "1"], "parents": ["X"],
         "cpt": [["3/4", "1/4"], ["1/4", "3/4"]]}
      ]
    }

Probabilities are exact strings: "num/den" or decimal literals ("0.25"
parses to exactly 1/4). An integer alphabet n expands to "0".."n-1";
the symbols of a listed alphabet are JSON strings or integers.
``write_network`` emits a canonical form (alphabets as explicit string
lists, probabilities via Fraction's shortest representation), and
parse-then-write is a fixed point on canonical files.

Sweep templates may additionally use arithmetic expressions over declared
parameters ("1 - d", "d/3"); these are evaluated exactly with
``eval_rational_expression`` before parsing.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from typing import Mapping

from .bayesnet import BayesNet, NodeSpec
from .errors import (
    DEFAULT_MAX_STATES,
    DIGITS_EXCEEDED,
    MAX_DIGITS,
    CapacityError,
    NetworkFormatError,
)
from .measures import JointPmf, Pmf

FORMAT_VERSION = 1

# A decimal literal with an exponent: sign, integer digits, fraction
# digits, exponent (underscores as Fraction accepts them).
_EXPONENT_FORM = re.compile(
    r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?e([-+]?[\d_]+)\s*", re.IGNORECASE
)


def _too_long(text: str) -> NetworkFormatError:
    return NetworkFormatError(
        f"{text} has a numerator or denominator of more than {MAX_DIGITS} digits"
    )


def _within_digits(value: Fraction, text: str) -> Fraction:
    """The value, refused when its numerator or denominator has more than
    MAX_DIGITS digits, CPython's limit for int-to-string conversion."""
    if not -DIGITS_EXCEEDED < value.numerator < DIGITS_EXCEEDED or (
        value.denominator >= DIGITS_EXCEEDED
    ):
        raise _too_long(text)
    return value


def _literal(text: str) -> Fraction:
    """Fraction(text), refused before it is expanded when its exact
    numerator or denominator would have more than MAX_DIGITS digits.

    Fraction already refuses such digit strings, but expands an exponent:
    "1e-10000000" builds 10**10000000 first. For a nonzero mantissa of m
    digits, f of them after the point, and exponent e, the value is
    M * 10**(e - f) with 0 < M < 10**m: a numerator of at least 10**(e - f)
    when e >= f, and a reduced denominator above 10**(f - e - m) when
    e < f. Either bound past MAX_DIGITS refuses the literal unexpanded;
    otherwise the expansion costs no more than the digits the literal
    holds, and the value itself is checked. A ratio of ASCII digits (each
    part of at most MAX_DIGITS digits, the denominator nonzero) is read with
    ``int``.
    """
    num, slash, den = text.partition("/")
    if (slash and text.isascii() and num.isdigit() and den.isdigit()
            and len(num) <= MAX_DIGITS and len(den) <= MAX_DIGITS and den.strip("0")):
        return _within_digits(Fraction(int(num), int(den)), repr(text))
    form = _EXPONENT_FORM.fullmatch(text)
    if form:
        whole, frac, exp = (part.replace("_", "") for part in form.groups(""))
        if not (whole + frac).strip("0"):  # 0 whatever the exponent
            return Fraction(text[: form.start(3)] + "0" + text[form.end(3) :])
        try:
            shift = int(exp) - len(frac)
        except ValueError:  # an exponent of more than MAX_DIGITS digits
            shift = None
        if shift is None or max(shift, -shift - len(whole + frac)) >= MAX_DIGITS:
            raise _too_long(repr(text))
    return _within_digits(Fraction(text), repr(text))


def parse_probability(text) -> Fraction:
    """Exact parse of "3/4", "0.25", 1, etc.; floats are refused, and so
    is a value whose numerator or denominator has more than MAX_DIGITS
    digits."""
    if isinstance(text, bool):
        raise NetworkFormatError(f"bad probability {text!r}")
    if isinstance(text, int):
        return _within_digits(Fraction(text), "integer")
    if isinstance(text, float):
        raise NetworkFormatError(
            f"float probability {text!r}: quote it as a string to keep it exact"
        )
    try:
        return _literal(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise NetworkFormatError(f"bad probability {text!r}: {err}") from None


def eval_rational_expression(text: str, bindings: Mapping[str, Fraction]) -> Fraction:
    """Evaluate +, -, *, / over integers and bound parameter names, exactly."""

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp):
            ops = {
                ast.Add: lambda a, b: a + b,
                ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b,
                ast.Div: lambda a, b: a / b,
            }
            fn = ops.get(type(node.op))
            if fn is None:
                raise NetworkFormatError(f"operator not allowed in {text!r}")
            return fn(walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -walk(node.operand)
            if isinstance(node.op, ast.UAdd):
                return walk(node.operand)
            raise NetworkFormatError(f"operator not allowed in {text!r}")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return Fraction(node.value)
            raise NetworkFormatError(
                f"literal {node.value!r} in {text!r} is not an integer; "
                "write fractions as a/b"
            )
        if isinstance(node, ast.Name):
            if node.id in bindings:
                return bindings[node.id]
            raise NetworkFormatError(f"unknown parameter {node.id!r} in {text!r}")
        raise NetworkFormatError(f"unsupported syntax in {text!r}")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise NetworkFormatError(f"bad expression {text!r}: {err}") from None
    try:
        return walk(tree)
    except ZeroDivisionError:
        raise NetworkFormatError(f"division by zero in {text!r}") from None


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise NetworkFormatError(f"{what} must be a list, got {value!r}")
    return value


def _symbols(value, what: str) -> list[str]:
    """An alphabet's symbols, which JSON gives as strings or integers;
    booleans, null, floats, lists and objects are refused."""
    for symbol in _as_list(value, what):
        if isinstance(symbol, bool) or not isinstance(symbol, (str, int)):
            raise NetworkFormatError(f"{what}: symbol {symbol!r} is not a string or integer")
    return [str(symbol) for symbol in value]


def _parse_entry(value, bindings: Mapping[str, Fraction] | None, parsed: dict) -> Fraction:
    """One CPT entry; each string is parsed once, its value kept in ``parsed``."""
    if type(value) is not str:
        return parse_probability(value)
    if value not in parsed:
        try:
            parsed[value] = parse_probability(value) if bindings is None else _literal(value)
        except (ValueError, ZeroDivisionError):
            parsed[value] = _within_digits(eval_rational_expression(value, bindings), repr(value))
    return parsed[value]


def parse_network(
    text: str, bindings: Mapping[str, Fraction] | None = None
) -> BayesNet:
    """Parse a network document; malformed structure raises
    ``NetworkFormatError`` while probabilistic defects (bad row sums,
    arity mismatches) are left for ``bayesnet.validate`` to report."""
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an over-long JSON integer
        raise NetworkFormatError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise NetworkFormatError(f"unsupported format_version {version!r}")
    if "nodes" not in doc or "source" not in doc:
        raise NetworkFormatError('missing "nodes" or "source"')

    nodes, parsed = [], {}
    for raw in _as_list(doc["nodes"], '"nodes"'):
        if not isinstance(raw, dict) or "id" not in raw or "alphabet" not in raw:
            raise NetworkFormatError(f"bad node entry {raw!r}")
        alphabet = raw["alphabet"]
        # JSON true/false load as bool, a subclass of int: not a size.
        if isinstance(alphabet, int) and not isinstance(alphabet, bool):
            if alphabet < 1:
                raise NetworkFormatError(f"node {raw['id']}: empty alphabet")
            alphabet = [str(i) for i in range(alphabet)]
        elif isinstance(alphabet, list):
            alphabet = _symbols(alphabet, f"node {raw['id']}: alphabet")
        else:
            raise NetworkFormatError(f"node {raw['id']}: bad alphabet")
        where = f"node {raw['id']}:"
        rows = None
        if "cpt" in raw and raw["cpt"] is not None:
            rows = [
                [_parse_entry(v, bindings, parsed) for v in _as_list(row, f"{where} cpt row")]
                for row in _as_list(raw["cpt"], f"{where} cpt")
            ]
        parents = _as_list(raw.get("parents", []), f"{where} parents")
        nodes.append(NodeSpec.make(raw["id"], alphabet, parents, rows))
    try:
        return BayesNet(nodes, str(doc["source"]))
    except Exception as err:
        raise NetworkFormatError(str(err)) from None


def network_document(net: BayesNet) -> dict:
    nodes = []
    for node in net.nodes:
        entry: dict = {
            "id": node.node_id,
            "alphabet": list(node.alphabet),
            "parents": list(node.parents),
        }
        if node.rows is not None:
            entry["cpt"] = [[str(v) for v in row] for row in node.rows]
        nodes.append(entry)
    return {"format_version": FORMAT_VERSION, "source": net.source, "nodes": nodes}


def write_network(net: BayesNet) -> str:
    """Canonical textual form; parse(write(net)) round-trips exactly."""
    return json.dumps(network_document(net), indent=2) + "\n"


def parse_pmf_file(text: str):
    """PMF collections for the coupling commands.

    Either {"alphabet": [...], "pmfs": [[...], ...]} (a list of Pmf) or
    {"x_alphabet": [...], "y_alphabet": [...], "joints": [matrix, ...]}
    (a list of JointPmf, matrices indexed [x][y]).
    """
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an over-long JSON integer
        raise NetworkFormatError(f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")

    if "pmfs" in doc:
        if "alphabet" not in doc:
            raise NetworkFormatError('missing "alphabet"')
        alphabet = _symbols(doc["alphabet"], '"alphabet"')
        out = []
        for row in _as_list(doc["pmfs"], '"pmfs"'):
            values = [parse_probability(v) for v in _as_list(row, "pmf")]
            try:
                out.append(Pmf.from_values(values, alphabet))
            except Exception as err:
                raise NetworkFormatError(str(err)) from None
        return out

    if "joints" in doc:
        for key in ("x_alphabet", "y_alphabet"):
            if key not in doc:
                raise NetworkFormatError(f'missing "{key}"')
        xs = _symbols(doc["x_alphabet"], '"x_alphabet"')
        ys = _symbols(doc["y_alphabet"], '"y_alphabet"')
        out = []
        for matrix in _as_list(doc["joints"], '"joints"'):
            if len(_as_list(matrix, "joint matrix")) != len(xs):
                raise NetworkFormatError("joint matrix has wrong row count")
            mass = {}
            for x, row in zip(xs, matrix):
                if len(_as_list(row, "joint matrix row")) != len(ys):
                    raise NetworkFormatError("joint matrix has wrong column count")
                for y, v in zip(ys, row):
                    mass[(x, y)] = parse_probability(v)
            try:
                out.append(JointPmf(xs, ys, mass))
            except Exception as err:
                raise NetworkFormatError(str(err)) from None
        return out

    raise NetworkFormatError('expected a "pmfs" or "joints" document')


def parse_range(text: str, max_values: int = DEFAULT_MAX_STATES) -> list[Fraction]:
    """"start:stop:step" as inclusive exact values, e.g. "0:1/2:1/8".

    The values are counted before any is listed, and more than
    ``max_values`` of them raise ``CapacityError``.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise NetworkFormatError(f"range {text!r} is not start:stop:step")
    try:
        start, stop, step = (_literal(p) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise NetworkFormatError(f"bad range {text!r}: {err}") from None
    if step <= 0:
        raise NetworkFormatError("range step must be positive")
    count = (stop - start) // step + 1
    if count <= 0:
        raise NetworkFormatError(f"range {text!r} is empty")
    if count > max_values:
        raise CapacityError(count, max_values, "sweep values")
    return [start + k * step for k in range(count)]
