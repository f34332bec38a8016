"""Seeded input generators for the benchmark.

These deliberately do not import ``tests/helpers.py`` (nor ``leakbound``):
the workloads are defined here, so a refactor of the test helpers or of
the library cannot silently change what the benchmark measures. The
couplable-family construction mirrors the test helper's: point masses on
distinct symbols mixed with noise keep the column-wise second maximum at
most 1.

Every generator takes an explicit ``random.Random`` and returns plain
data (``Fraction`` lists, JSON-ready dicts), so the same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import product

DENOMINATORS = (6, 8, 10, 12, 16, 24)


def partition(rng: random.Random, k: int, den: int, positive: bool = False) -> list[Q]:
    """k nonnegative rationals with denominator den summing to exactly 1;
    with ``positive`` every part is at least 1/den (needs den >= k)."""
    if positive:
        cuts = sorted(rng.sample(range(1, den), k - 1))
    else:
        cuts = sorted(rng.randrange(0, den + 1) for _ in range(k - 1))
    parts, prev = [], 0
    for c in cuts + [den]:
        parts.append(Q(c - prev, den))
        prev = c
    return parts


def tau_max(rows: list[list[Q]]) -> Q:
    """Sum of the column maxima."""
    return sum((max(col) for col in zip(*rows)), Q(0))


def tau_max2(rows: list[list[Q]]) -> Q:
    """Sum of the column-wise second largest entries, ties counted."""
    return sum((sorted(col, reverse=True)[1] for col in zip(*rows)), Q(0))


def couplable_family(
    rng: random.Random, m: int, size: int, sparse: bool = False, positive: bool = False
) -> list[list[Q]]:
    """m rows on ``size`` symbols with tau_max2 <= 1, exactly.

    With room for one dominant symbol per row (size >= m), each row is a
    point mass on its own symbol with weight lam >= 1 - 1/m, mixed with
    noise; the column-wise second maximum then sums to at most
    (1 - lam) * m <= 1. ``sparse`` confines each row's noise to a few
    symbols; ``positive`` keeps every entry above zero. Narrow alphabets
    (size < m) force tau_max2 >= 1, so they use rows sitting on the
    boundary tau_max2 = 1, as the test helper does.
    """
    if size >= m:
        den = rng.choice((8, 12, 16, 24))
        lam_min = -((-(m - 1) * den) // m)  # ceil((m-1) * den / m)
        lam = Q(rng.randrange(lam_min, den + (not positive)), den)
        spots = rng.sample(range(size), m)
        rows = []
        for i in range(m):
            if sparse:
                width = min(size, rng.randrange(1, 4))
                cells = rng.sample(range(size), width)
                parts = partition(rng, width, den)
                noise = [Q(0)] * size
                for c, p in zip(cells, parts):
                    noise[c] += p
            else:
                noise = partition(rng, size, den, positive)
            rows.append([lam * (k == spots[i]) + (1 - lam) * noise[k]
                         for k in range(size)])
    elif (m, size) == (3, 2):
        rows = [partition(rng, 2, rng.choice(DENOMINATORS), positive) for _ in range(3)]
    elif (m, size) == (4, 2):
        den = rng.choice((8, 12, 16))
        lo = rng.randrange(int(positive), den + 1 - positive)
        hi = rng.randrange(lo, den + 1 - positive)
        mid = rng.randrange(lo, hi + 1)
        ps = [Q(hi, den), Q(mid, den), Q(mid, den), Q(lo, den)]
        rng.shuffle(ps)
        rows = [[p, 1 - p] for p in ps]
    elif m >= 4 and size >= 3:
        # Two free rows, then a row dominating their pointwise minimum,
        # repeated m - 2 times; the repeats pin the column-wise second
        # maximum to that row, so tau_max2 = 1.
        den = rng.choice((8, 12, 16))
        p2, p3 = partition(rng, size, den, positive), partition(rng, size, den, positive)
        floor = [min(a, b) for a, b in zip(p2, p3)]
        slack = partition(rng, size, den)
        rest = 1 - sum(floor)
        p1 = [floor[k] + rest * slack[k] for k in range(size)]
        rows = [list(p1) for _ in range(m - 2)] + [p2, p3]
        rng.shuffle(rows)
    else:
        raise ValueError(f"no couplable family for m={m}, size={size}")
    if tau_max2(rows) > 1:
        raise RuntimeError("couplable family has tau_max2 > 1")
    return rows


def unconstrained_family(rng: random.Random, m: int, size: int) -> list[list[Q]]:
    """Independent rows sharing one denominator, drawn until tau_max2 > 1."""
    while True:
        den = rng.choice(DENOMINATORS)
        rows = [partition(rng, size, den) for _ in range(m)]
        if tau_max2(rows) > 1:
            return rows


# ---------------------------------------------------------------------------
# query: couplable networks written as network files
# ---------------------------------------------------------------------------


def _cpt_rows(rng: random.Random, n_rows: int, size: int) -> list[list[Q]]:
    """A couplable CPT with positive entries and at least two distinct rows."""
    while True:
        rows = couplable_family(rng, n_rows, size, positive=True)
        if any(rows[0] != r for r in rows[1:]):
            return rows


def couplable_network(
    rng: random.Random,
    n_nodes: int,
    x_size: int,
    n_targets: int,
    n_outside: int,
    n_ternary: int,
) -> tuple[dict, list[str]]:
    """(network document, targets).

    Every CPT is couplable (tau_max2 <= 1) with at least two distinct
    rows and at most four rows: one parent, or two binary parents. The
    first ``n_nodes - 1 - n_outside`` non-source nodes form a core in
    which node k always has node k - 1 as a parent (N1 has X), so the
    targets, which include the last core node, reach the whole core and
    every query peels the same number of nodes. The last ``n_outside``
    nodes pick parents anywhere; none of them is an ancestor of a
    target. ``n_ternary`` non-source nodes have three symbols, the rest
    two, so the joint state count is fixed by the arguments.
    """
    n_core = n_nodes - 1 - n_outside
    if not 1 <= n_targets <= n_core or not 0 <= n_ternary <= n_nodes - 1:
        raise ValueError("inconsistent network shape")
    node_sizes = [3] * n_ternary + [2] * (n_nodes - 1 - n_ternary)
    rng.shuffle(node_sizes)
    sizes = {"X": x_size}
    nodes = [{"id": "X", "alphabet": x_size, "parents": []}]
    for k in range(1, n_nodes):
        nid = f"N{k}"
        size = node_sizes[k - 1]
        binary = [c for c in sizes if sizes[c] == 2]
        if k <= n_core:
            spine = "X" if k == 1 else f"N{k - 1}"
            others = [c for c in binary if c != spine]
            if sizes[spine] == 2 and others and rng.random() < 0.4:
                parents = [spine, rng.choice(others)]
                rng.shuffle(parents)
            else:
                parents = [spine]
        elif len(binary) >= 2 and rng.random() < 0.4:
            parents = rng.sample(binary, 2)
        else:
            parents = [rng.choice(list(sizes))]
        n_rows = 1
        for p in parents:
            n_rows *= sizes[p]
        rows = _cpt_rows(rng, n_rows, size)
        nodes.append({
            "id": nid,
            "alphabet": size,
            "parents": parents,
            "cpt": [[str(v) for v in row] for row in rows],
        })
        sizes[nid] = size

    core = [f"N{k}" for k in range(1, n_core + 1)]
    targets = sorted(rng.sample(core[:-1], n_targets - 1),
                     key=lambda t: int(t[1:])) + [core[-1]]
    return {"format_version": 1, "source": "X", "nodes": nodes}, targets


# ---------------------------------------------------------------------------
# simul: joint families over product-shaped Y alphabets
# ---------------------------------------------------------------------------


def product_alphabet(shape: tuple[int, ...]) -> list[str]:
    """Symbols of a product of small alphabets, e.g. (2, 3) -> "0.0".."1.2"."""
    return [".".join(t) for t in product(*(tuple(str(i) for i in range(s))
                                           for s in shape))]


def joint_family(
    rng: random.Random, m: int, x_size: int, y_shape: tuple[int, ...]
) -> tuple[list[str], list[str], list[list[list[Q]]]]:
    """m joints P_i(x, y) = P_i(y) P_i(x | y) with couplable, sparse Y-marginals.

    Returns (x alphabet, y alphabet, per-source matrices indexed [x][y]).
    Each conditional P_i(x | y) puts its mass on one to three x values.
    """
    ys = product_alphabet(y_shape)
    xs = [str(i) for i in range(x_size)]
    y_rows = couplable_family(rng, m, len(ys), sparse=True)
    joints = []
    for y_row in y_rows:
        matrix = [[Q(0)] * len(ys) for _ in xs]
        for k, py in enumerate(y_row):
            if not py:
                continue
            width = min(x_size, rng.randrange(1, 4))
            cells = rng.sample(range(x_size), width)
            for c, part in zip(cells, partition(rng, width, rng.choice((2, 3, 4)))):
                matrix[c][k] += py * part
        joints.append(matrix)
    return xs, ys, joints
