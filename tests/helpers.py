"""Seeded random generators shared by the test modules.

Everything is driven by an explicit ``random.Random`` instance so that
every suite run sees identical instances; expected values asserted
against them are therefore stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import accumulate, combinations, product
from math import prod
from operator import itemgetter
from typing import NamedTuple

from leakbound import (
    ConstructionError,
    Coupling,
    DiscreteChannel,
    JointPmf,
    LeakboundError,
    Pmf,
    PreconditionError,
    build_n4_coupling,
    min_union_coupling_diag,
    tau_max,
    tau_max2,
    tau_subset,
)
from leakbound.bayesnet import (
    BayesNet,
    NodeSpec,
    composite_channel,
    topological_sort,
)
from leakbound.couplings import (
    ALL_PAIRS,
    ANCHOR_PAIRS,
    FOUR_WAY_CONDITION,
    TAU_MAX2_CONDITION,
    Pair,
    complement_pair,
)
from leakbound.errors import DEFAULT_MAX_STATES, CapacityError, exact_str
from leakbound.measures import ZERO, as_fraction, push_forward

DENOMINATORS = (6, 8, 10, 12, 16, 24)


def rand_partition(rng: random.Random, k: int, den: int) -> list[Q]:
    """k nonnegative rationals with denominator den summing to exactly 1."""
    cuts = sorted(rng.randrange(0, den + 1) for _ in range(k - 1))
    parts = []
    prev = 0
    for c in cuts + [den]:
        parts.append(Q(c - prev, den))
        prev = c
    return parts


def alphabet(size: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(size))


def rand_pmf(rng: random.Random, size: int, den: int | None = None) -> Pmf:
    den = den or rng.choice(DENOMINATORS)
    return Pmf.from_values(rand_partition(rng, size, den), alphabet(size))


def rand_family(rng: random.Random, m: int, size: int) -> list[Pmf]:
    den = rng.choice(DENOMINATORS)
    return [rand_pmf(rng, size, den) for _ in range(m)]


def rand_channel(rng: random.Random, n: int, size: int) -> DiscreteChannel:
    return DiscreteChannel(rand_family(rng, n, size))


def rand_family_tau_max2_le1(rng: random.Random, m: int, size: int) -> list[Pmf]:
    """A random family with tau_max2 <= 1, exactly.

    When the alphabet has room for one dominant symbol per row, mix point
    masses on distinct symbols (weight lam >= 1 - 1/m) with arbitrary
    noise rows; the column-wise second maximum of the mixture is at most
    (1 - lam) * m <= 1. Narrow alphabets (size < m) force tau_max2 >= 1,
    so those cells use families sitting exactly on the boundary:
    duplicated symmetric-channel rows, or rows whose middle probabilities
    tie. Every branch double-checks the property before returning.
    """
    out: list[Pmf] | None = None
    if size >= m:
        den = rng.choice((8, 12, 16, 24))
        lam_min = -((-(m - 1) * den) // m)  # ceil((m-1) * den / m)
        lam = Q(rng.randrange(lam_min, den + 1), den)
        spots = rng.sample(range(size), m)
        rows = []
        for i in range(m):
            noise = rand_partition(rng, size, den)
            row = [lam * (1 if k == spots[i] else 0) + (1 - lam) * noise[k]
                   for k in range(size)]
            rows.append(row)
        out = [Pmf.from_values(r, alphabet(size)) for r in rows]
    elif (m, size) == (3, 2):
        out = [rand_pmf(rng, 2) for _ in range(3)]  # tau_max2 is always 1
    elif (m, size) == (4, 2):
        den = rng.choice((8, 12, 16))
        lo = rng.randrange(0, den + 1)
        hi = rng.randrange(lo, den + 1)
        mid = rng.randrange(lo, hi + 1)
        ps = [Q(hi, den), Q(mid, den), Q(mid, den), Q(lo, den)]
        rng.shuffle(ps)
        out = [Pmf.from_values([p, 1 - p], alphabet(2)) for p in ps]
    elif (m, size) == (4, 3):
        # Two free rows, then a row dominating their pointwise minimum,
        # duplicated; the duplicate keeps the column-wise second maximum
        # from ever exceeding that dominating row, so tau_max2 = 1.
        den = rng.choice((8, 12, 16))
        p2 = rand_partition(rng, 3, den)
        p3 = rand_partition(rng, 3, den)
        floor = [min(a, b) for a, b in zip(p2, p3)]
        slack = rand_partition(rng, 3, den)
        rest = 1 - sum(floor)
        p1 = [floor[k] + rest * slack[k] for k in range(3)]
        rows = [p1, p2, p3, list(p1)]
        rng.shuffle(rows)
        out = [Pmf.from_values(r, alphabet(3)) for r in rows]
    else:
        raise ValueError(f"no generator for m={m}, size={size}")
    assert tau_max2(DiscreteChannel(out)) <= 1
    return out


def reference_comonotone(pmfs, floor: bool = False) -> dict:
    """The comonotone coupling of ``pmfs`` as {symbol tuple: mass} on its
    positive cells, read off the quantile functions: [0, 1) is cut at
    every cumulative mass of every row, and on each piece each coordinate
    takes the first symbol whose cumulative mass passes the piece's left
    end. With ``floor`` each (y, ..., y) first gets min_i P_i(y), and the
    residuals P_i(y) - min_j P_j(y), all of one total, are cut so."""
    symbols = pmfs[0].alphabet
    rows = [[p[y] for y in symbols] for p in pmfs]
    mass = {}
    if floor:
        floors = [min(col) for col in zip(*rows)]
        rows = [[a - f for a, f in zip(row, floors)] for row in rows]
        mass = {(y,) * len(pmfs): f for y, f in zip(symbols, floors) if f}
    cums = [list(accumulate(row)) for row in rows]
    cuts = sorted({Q(0)} | {c for cum in cums for c in cum})
    for lo, hi in zip(cuts, cuts[1:]):
        t = tuple(symbols[next(k for k, c in enumerate(cum) if c > lo)] for cum in cums)
        mass[t] = mass.get(t, Q(0)) + hi - lo
    return mass


def rand_family_tau_max2_gt1(rng: random.Random, m: int, size: int) -> list[Pmf]:
    """Rejection-sample an unconstrained family until tau_max2 > 1."""
    while True:
        fam = rand_family(rng, m, size)
        if tau_max2(DiscreteChannel(fam)) > 1:
            return fam


def three_way_by_duplication(y_pmfs) -> Coupling:
    """Reference three-way coupling: the four-way construction of
    (p1, p2, p3, p3), validated, with the duplicate coordinate projected
    out. Its existence condition is equivalent to tau_max2 <= 1 of the
    trio, and the projection keeps marginals, union mass and diagonal."""
    p1, p2, p3 = y_pmfs
    four = build_n4_coupling([p1, p2, p3, p3])
    mass = push_forward(four.mass, itemgetter(0, 1, 2))
    return Coupling(p1.alphabet, 3, mass, [p1, p2, p3])


@dataclass(frozen=True)
class ReferenceN4Ingredients:
    """The fields of ``couplings.N4Ingredients`` as ``Fraction``s, not
    numerators over a common denominator."""

    channel: DiscreteChannel
    tau: Q
    tau_max: Q
    tau_max2: Q
    tau_by_subset: dict
    p_min: dict
    r_num: tuple
    r_norm: tuple
    t: dict
    n: dict
    s_trio: dict

    def condition_slack(self) -> Q:
        cap = sum((min(self.n[p], self.n[complement_pair(p)]) for p in ANCHOR_PAIRS), ZERO)
        return cap - (self.tau_max2 - 1)


class ReferenceWeights(NamedTuple):
    """The fields of ``couplings.MixtureWeights`` as ``Fraction``s."""

    alpha: dict
    beta: dict
    independent: Q


def reference_n4_ingredients(pmfs) -> ReferenceN4Ingredients:
    """Reference four-way ingredients, one quantity at a time: 11
    ``tau_subset`` scans, every pair and triple minimum re-derived for T_ij
    and for the trio factors S_I, and ``tau_max`` / ``tau_max2`` scans of
    their own. P_min is listed on the symbols some row puts mass on."""
    pmfs = tuple(pmfs)
    if len(pmfs) != 4:
        raise LeakboundError("the four-way construction needs exactly 4 PMFs")
    channel = DiscreteChannel(pmfs)
    alphabet = channel.output_alphabet

    tau_by_subset = {}
    for size in (2, 3, 4):
        for subset in combinations(range(4), size):
            tau_by_subset[frozenset(subset)] = tau_subset(channel, subset)
    tau = tau_by_subset[frozenset(range(4))]

    p_min = {y: min(p[y] for p in pmfs) for y in alphabet}

    r_num, r_norm = [], []
    for i in range(4):
        others = [p for k, p in enumerate(pmfs) if k != i]
        num = {}
        for y in alphabet:
            excess = pmfs[i][y] - min(pmfs[i][y], max(o[y] for o in others))
            if excess:
                num[y] = excess
        norm = (
            1
            - sum((tau_by_subset[Pair({i, j})] for j in range(4) if j != i), ZERO)
            + sum(
                (
                    tau_by_subset[frozenset({i, j, k})]
                    for j, k in combinations([x for x in range(4) if x != i], 2)
                ),
                ZERO,
            )
            - tau
        )
        total = sum(num.values(), ZERO)
        if total != norm:
            raise ConstructionError(
                f"residual normalizer mismatch for row {i}: "
                f"sum of numerators {total} != {norm}"
            )
        r_num.append(num)
        r_norm.append(norm)

    t, n = {}, {}
    for pair in ALL_PAIRS:
        i, j = sorted(pair)
        k, l = sorted(complement_pair(pair))
        tij = {}
        for y in alphabet:
            val = (
                min(pmfs[i][y], pmfs[j][y])
                - min(pmfs[i][y], pmfs[j][y], pmfs[k][y])
                - min(pmfs[i][y], pmfs[j][y], pmfs[l][y])
                + p_min[y]
            )
            if val < 0:
                raise ConstructionError(f"pair residual T_{i}{j}({y!r}) = {val} < 0")
            if val:
                tij[y] = val
        t[pair] = tij
        n[pair] = sum(tij.values(), ZERO)

    s_trio = {}
    for trio in combinations(range(4), 3):
        s_trio[frozenset(trio)] = {
            y: excess for y in alphabet
            if (excess := min(pmfs[j][y] for j in trio) - p_min[y])
        }

    return ReferenceN4Ingredients(
        channel=channel,
        tau=tau,
        tau_max=tau_max(channel),
        tau_max2=tau_max2(channel),
        tau_by_subset=tau_by_subset,
        p_min={y: q for y, q in p_min.items() if any(p[y] for p in pmfs)},
        r_num=tuple(r_num),
        r_norm=tuple(r_norm),
        t=t,
        n=n,
        s_trio=s_trio,
    )


def reference_choose_abc(ing: ReferenceN4Ingredients) -> tuple[Q, Q, Q]:
    """Reference four-way budget split: the shares (a, b, c) of the budget
    tau_max2 - 1 taken greedily in the order (01/23), (02/13), (03/12),
    each share capped by its pairing's capacity divided by the budget."""
    slack = ing.condition_slack()
    if slack < 0:
        raise PreconditionError(FOUR_WAY_CONDITION, slack)
    budget = ing.tau_max2 - 1
    if budget <= 0:
        return (Q(1), ZERO, ZERO)
    caps = [min(ing.n[p], ing.n[complement_pair(p)]) for p in ANCHOR_PAIRS]
    a = min(Q(1), caps[0] / budget)
    b = min(1 - a, caps[1] / budget)
    c = 1 - a - b
    if c * budget > caps[2]:
        raise ConstructionError("greedy split exceeded the third capacity")
    return (a, b, c)


def reference_n4_mixture_weights(ing: ReferenceN4Ingredients) -> ReferenceWeights:
    """Reference mixture weights: each alpha is its ``reference_choose_abc``
    share times the budget tau_max2 - 1 (0 below tau_max2 = 1, where the
    independent component takes 1 - tau_max2)."""
    a, b, c = reference_choose_abc(ing)
    budget = ing.tau_max2 - 1
    if budget >= 0:
        alpha = {p: share * budget for p, share in zip(ANCHOR_PAIRS, (a, b, c))}
        independent = ZERO
    else:
        alpha = {p: ZERO for p in ANCHOR_PAIRS}
        independent = -budget
    beta = {}
    for anchored in ANCHOR_PAIRS:
        other = complement_pair(anchored)
        beta[anchored] = ing.n[anchored] - alpha[anchored]
        beta[other] = ing.n[other] - alpha[anchored]
    for pair, value in beta.items():
        if value < 0:
            raise ConstructionError(f"negative beta weight {value} for pair {set(pair)}")
    return ReferenceWeights(alpha=alpha, beta=beta, independent=independent)


def reference_residuals(sources) -> tuple[dict, ...]:
    """Reference r_i(x | y) of the simultaneous coupling: per source and
    symbol y, a scan over X of P_i(x, y) - min_j P_j(x, y), each nonzero
    entry divided by the sum of the scanned entries."""
    x_alphabet, y_alphabet = sources[0].x_alphabet, sources[0].y_alphabet
    residual = []
    for s in sources:
        lists = {}
        for y in y_alphabet:
            cells = [
                (x, d) for x in x_alphabet
                if (d := s[(x, y)] - min(t[(x, y)] for t in sources))
            ]
            den = sum((d for _, d in cells), ZERO)
            lists[y] = {x: d / den for x, d in cells}
        residual.append(lists)
    return tuple(residual)


def reference_intersection_violations(coupling: Coupling, pmfs) -> list[tuple]:
    """Reference intersection check: one scan of the whole support per
    (subset, symbol) pair."""
    pmfs = tuple(pmfs)
    m = coupling.arity
    if len(pmfs) != m:
        raise LeakboundError("need one PMF per coupling coordinate")
    if any(pmf.alphabet != coupling.alphabet for pmf in pmfs):
        raise LeakboundError("PMF on a different alphabet from the coupling's")
    out = []
    for size in range(2, m + 1):
        for subset in combinations(range(m), size):
            for y in coupling.alphabet:
                got = sum(
                    (
                        q
                        for tup, q in coupling.mass.items()
                        if all(tup[i] == y for i in subset)
                    ),
                    ZERO,
                )
                want = min(pmfs[i][y] for i in subset)
                if got != want:
                    out.append((subset, y, got, want))
    return out


def perturbed_masses(mass, keys) -> dict:
    """Faulty copies of a coupling's masses, by name. With t1, t2 the first
    two tuples of the sorted support (t2 the first of ``keys`` outside the
    support when it has one tuple): "moved", half of t1's mass onto t2;
    "halved", every mass; "negative", t1 at minus its mass and t2 up by
    twice it, so the total is kept; "zero", a zero-mass entry at the first
    of ``keys`` outside the support, or t1 emptied onto t2 when there is
    none. Only "halved" when ``keys`` holds no second tuple."""
    faults = {"halved": {t: q / 2 for t, q in mass.items()}}
    support = sorted(mass)
    outside = next((t for t in keys if t not in mass), None)
    t1, t2 = support[0], support[1] if len(support) > 1 else outside
    if t2 is None:
        return faults
    q = mass[t1]
    faults["moved"] = {**mass, t1: q / 2, t2: mass.get(t2, ZERO) + q / 2}
    faults["negative"] = {**mass, t1: -q, t2: mass.get(t2, ZERO) + 2 * q}
    faults["zero"] = ({**mass, outside: ZERO} if outside is not None
                      else {**mass, t1: ZERO, t2: mass[t2] + q})
    return faults


def reference_coupling_marginal_check(alphabet, arity: int, mass, marginals) -> dict:
    """Reference ``Coupling`` validation: the masses through
    ``reference_exact_masses``, then every coordinate's projection pushed
    forward in ``Fraction``s and looked up against its declared ``Pmf``.
    Returns the validated masses."""
    alphabet = tuple(alphabet)
    marginals = tuple(marginals)
    if arity < 1:
        raise LeakboundError("coupling arity must be >= 1")
    if len(marginals) != arity:
        raise LeakboundError("need one declared marginal per coordinate")
    if any(marginal.alphabet != alphabet for marginal in marginals):
        DiscreteChannel(marginals)  # refuses marginals on mixed alphabets
        raise LeakboundError("declared marginal on a different alphabet")
    known = set(alphabet)
    clean = reference_exact_masses(
        ((tuple(tup), q) for tup, q in mass.items()),
        lambda tup: len(tup) == arity and known.issuperset(tup),
    )
    for i, marg in enumerate(marginals):
        got = push_forward(clean, itemgetter(i))
        for y in alphabet:
            if got.get(y, ZERO) != marg[y]:
                raise LeakboundError(
                    f"coordinate {i} marginal at {y!r} is "
                    f"{got.get(y, ZERO)}, declared {marg[y]}"
                )
    return clean


def reference_simul_validate(coupling) -> None:
    """Reference ``SimulCoupling.validate``: every sign, the total, each
    source marginal and the Y-projection, summed in ``Fraction``s."""
    marginals = [{} for _ in coupling.sources]
    proj = {}
    for (xs, ys), q in coupling.mass.items():
        if q < 0:
            raise ConstructionError(f"negative mass {exact_str(q)} at {(xs, ys)!r}")
        proj[ys] = proj.get(ys, ZERO) + q
        for got, cell in zip(marginals, zip(xs, ys)):
            got[cell] = got.get(cell, ZERO) + q
    total = sum(proj.values(), ZERO)
    if total != 1:
        raise ConstructionError(f"coupling mass sums to {total}")
    for i, (src, got) in enumerate(zip(coupling.sources, marginals)):
        for cell in src.alphabet:
            if got.get(cell, ZERO) != src[cell]:
                raise ConstructionError(f"source {i} marginal mismatch at {cell!r}")
    if proj != dict(coupling.y_coupling.mass):
        raise ConstructionError("Y-projection differs from ingredient coupling")


def reference_simul_mass(sources) -> dict:
    """Reference listing of ``build_simultaneous_coupling``, one Fraction
    per tuple: P_min on the tied tuples, then every G2/G3 Y-tuple of the
    reference parts (masses added up where parts share a tuple) spread as
    w * prod_i r_i(x_i | y_i) over the reference residuals."""
    sources = tuple(sources)
    m = len(sources)
    p_min = {cell: low for cell, col in fraction_columns(DiscreteChannel(sources)).items()
             if (low := min(col))}
    floor = push_forward(p_min, itemgetter(1))
    y_marginals = [s.y_marginal() for s in sources]
    tied = tuple((y, w) for y in sources[0].y_alphabet
                 if (w := min(p[y] for p in y_marginals) - floor.get(y, ZERO)))
    parts = [part for part in reference_minimal_y_coupling(y_marginals) if len(part) > 1]
    parts.append(((tuple(range(m)), tied),))
    residual = reference_residuals(sources)
    mass = {((x,) * m, (y,) * m): q for (x, y), q in p_min.items()}
    for ys, w in reference_mass(parts, m).items():
        for combo in product(*(residual[i][y].items() for i, y in enumerate(ys))):
            key = (tuple(x for x, _ in combo), ys)
            mass[key] = mass.get(key, ZERO) + w * prod(r for _, r in combo)
    return mass


def reference_y_union_mass(coupling) -> Q:
    """Reference ``y_union_mass``: one ``Fraction`` product per tuple."""
    return sum((q * len(set(ys)) for (xs, ys), q in coupling.mass.items()), ZERO)


def reference_f_quantity(coupling) -> Q:
    """Reference ``f_quantity``: one ``Fraction`` product per tuple whose
    X-part is constant."""
    return sum((q * len(set(ys)) for (xs, ys), q in coupling.mass.items()
                if all(x == xs[0] for x in xs)), ZERO)


def bsc_rows(delta: Q) -> list[list[Q]]:
    return [[1 - delta, delta], [delta, 1 - delta]]


def chain_net(d1: Q, d2: Q) -> BayesNet:
    return BayesNet(
        [
            NodeSpec.make("X", 2),
            NodeSpec.make("Y1", 2, ["X"], bsc_rows(d1)),
            NodeSpec.make("Y2", 2, ["Y1"], bsc_rows(d2)),
        ],
        "X",
    )


def threshold_rows(d: Q) -> list[list[Q]]:
    """Noisy two-input threshold: output leans 0 when both parents are 0,
    leans 1 when both are 1, and is a fair coin on mixed inputs. The tied
    middle rows keep the CPT's tau_max2 at exactly 1."""
    half = Q(1, 2)
    return [[1 - d, d], [half, half], [half, half], [d, 1 - d]]


def relay_net(d: Q) -> BayesNet:
    """X -> Y1, {X, Y1} -> Z (noisy threshold), Z -> Y2, crossover d."""
    return BayesNet(
        [
            NodeSpec.make("X", 2),
            NodeSpec.make("Y1", 2, ["X"], bsc_rows(d)),
            NodeSpec.make("Z", 2, ["X", "Y1"], threshold_rows(d)),
            NodeSpec.make("Y2", 2, ["Z"], bsc_rows(d)),
        ],
        "X",
    )


def diamond_net(d: Q) -> BayesNet:
    """X -> Y1, {X, Y1} -> Y2, {Y1, Y2} -> Y3, noisy-threshold inner nodes."""
    return BayesNet(
        [
            NodeSpec.make("X", 2),
            NodeSpec.make("Y1", 2, ["X"], bsc_rows(d)),
            NodeSpec.make("Y2", 2, ["X", "Y1"], threshold_rows(d)),
            NodeSpec.make("Y3", 2, ["Y1", "Y2"], threshold_rows(d)),
        ],
        "X",
    )


def wide_net() -> BayesNet:
    """X -> Y plus 14 ternary children of X that Y never depends on: the
    whole net has 2 * 3**14 non-source states, Y's ancestral closure 2."""
    bsc = [["3/4", "1/4"], ["1/4", "3/4"]]
    noise = [["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"]]
    nodes = [NodeSpec.make("X", 2), NodeSpec.make("Y", 2, ["X"], bsc)]
    nodes += [NodeSpec.make(f"C{k}", 3, ["X"], noise) for k in range(14)]
    return BayesNet(nodes, "X")


def outside_parent_net() -> BayesNet:
    """X -> A, X -> B -> C: A a copy of binary X, B a ternary copy of X,
    and C's rows 1/2-1/2-0, 1/2-0-1/2, 0-1/2-1/2 (tau_max2 = 3/2 > 1).
    Peeling C off V = {A} projects closure(pa(C) + V) = {X, A, B}, with
    6 joint states, where closure(V) = {X, A} has 2."""
    half = Q(1, 2)
    return BayesNet(
        [
            NodeSpec.make("X", 2),
            NodeSpec.make("A", 2, ["X"], [[1, 0], [0, 1]]),
            NodeSpec.make("B", 3, ["X"], [[1, 0, 0], [0, 1, 0]]),
            NodeSpec.make("C", 3, ["B"], [[half, half, 0], [half, 0, half], [0, half, half]]),
        ],
        "X",
    )


def rand_couplable_net(
    rng: random.Random,
    n_nodes: int,
    x_size: int | None = None,
) -> BayesNet:
    """A random DAG whose every CPT satisfies tau_max2 <= 1 and has at
    least two distinct rows (so its leakage exponent exceeds 1).

    Parent sets are capped so CPTs never have more than four rows, which
    is the range the couplable-family generator covers: one parent of any
    size, or two binary parents. An ``x_size`` of 5 or more takes its own
    branch: every node has one parent and an alphabet at least as large
    as its parent's, so that each CPT, with |X| or more rows, is drawn
    from the generator's dominant-symbol branch.
    """
    x_size = x_size or rng.choice((2, 3, 4))
    nodes = [NodeSpec.make("X", x_size)]
    sizes = {"X": x_size}
    for k in range(1, n_nodes):
        candidates = [n.node_id for n in nodes]
        if x_size >= 5:
            parents = [rng.choice(candidates)]
            size = sizes[parents[0]] + rng.choice((0, 0, 1))
        else:
            size = rng.choice((2, 3))
            binary = [c for c in candidates if sizes[c] == 2]
            if len(binary) >= 2 and rng.random() < 0.4:
                parents = rng.sample(binary, 2)
            else:
                parents = [rng.choice(candidates)]
        n_rows = 1
        for p in parents:
            n_rows *= sizes[p]
        while True:
            fam = rand_family_tau_max2_le1(rng, n_rows, size)
            if any(fam[0] != p for p in fam[1:]):
                break
        rows = [p.values() for p in fam]
        nodes.append(NodeSpec.make(f"N{k}", size, parents, rows))
        sizes[f"N{k}"] = size
    return BayesNet(nodes, "X")


def _rand_cpt_rows(
    rng: random.Random, n_rows: int, size: int, noisy: bool
) -> list[list[Q]]:
    """Random stochastic rows; ``noisy`` mixes every row toward a shared
    row, which keeps composite tau_max2 small. Regenerates until at least
    two rows differ (so tau_max > 1 whenever n_rows > 1)."""
    while True:
        den = rng.choice((8, 12, 16))
        if noisy:
            base = rand_partition(rng, size, den)
            lam = Q(rng.randrange((2 * den) // 3, den), den)
            rows = []
            for _ in range(n_rows):
                own = rand_partition(rng, size, den)
                rows.append([lam * base[k] + (1 - lam) * own[k] for k in range(size)])
        else:
            rows = [rand_partition(rng, size, den) for _ in range(n_rows)]
        if n_rows == 1 or any(rows[0] != r for r in rows[1:]):
            return rows


def rand_net(
    rng: random.Random,
    n_nodes: int = 4,
    max_alphabet: int = 3,
    x_size: int | None = None,
    noisy: bool = True,
) -> BayesNet:
    """A random DAG rooted at source X with random CPTs.

    Node k picks one or two parents among X and earlier nodes; alphabets
    are sampled up to ``max_alphabet``. ``noisy`` CPTs mix rows toward a
    common row, which keeps composite tau_max2 values small.
    """
    x_size = x_size or rng.randrange(2, max_alphabet + 1)
    nodes = [NodeSpec.make("X", x_size)]
    sizes = {"X": x_size}
    for k in range(1, n_nodes):
        size = rng.randrange(2, max_alphabet + 1)
        n_parents = 1 if k == 1 else rng.choice((1, 1, 2))
        candidates = [n.node_id for n in nodes]
        parents = rng.sample(candidates, min(n_parents, len(candidates)))
        n_rows = 1
        for p in parents:
            n_rows *= sizes[p]
        rows = _rand_cpt_rows(rng, n_rows, size, noisy)
        nodes.append(NodeSpec.make(f"N{k}", size, parents, rows))
        sizes[f"N{k}"] = size
    return BayesNet(nodes, "X")


def sources_for_coupling(
    net: BayesNet, v_set, u: str, max_states: int
) -> list[JointPmf]:
    """Reference for ``composite_joints(net, pa(U), V)``: the joints
    P_{pa(U), V | X = i} split out of the rows of the composite channel
    P_{V+pa(U)|X}. The x-part is U's parent values in U's declared parent
    order, the y-part V's values; one JointPmf per source value."""
    parents = list(net.by_id[u].parents)
    decl = net.node_ids()
    w_nodes = set(v_set) | set(parents)
    ordered = [nid for nid in decl if nid in w_nodes]
    w_pos = {nid: k for k, nid in enumerate(ordered)}
    v_ordered = [nid for nid in decl if nid in set(v_set)]
    w_channel = composite_channel(net, ordered, max_states=max_states)

    z_alphabet = list(product(*(net.by_id[p].alphabet for p in parents)))
    v_alphabet = list(product(*(net.by_id[t].alphabet for t in v_ordered)))

    sources = []
    for row in w_channel.rows:
        mass: dict[tuple, Q] = {}
        for w_value, q in row.mass.items():
            z = tuple(w_value[w_pos[p]] for p in parents)
            v = tuple(w_value[w_pos[t]] for t in v_ordered)
            key = (z, v)
            mass[key] = mass.get(key, ZERO) + q
        sources.append(JointPmf(z_alphabet, v_alphabet, mass))
    return sources


# The Fraction code that the integer kernels replaced, kept as references
# for the differential tests: every sum, maximum and minimum is taken on
# Fractions, column by column over the whole output alphabet.


def refuse_pmf(self, *args, **kwargs):
    """Stands in for ``Pmf.__init__`` (or ``Pmf.__getitem__``) where a
    test asserts that no ``Pmf`` is built (or looked up)."""
    raise AssertionError("a Pmf was built or looked up")


def reference_exact_masses(cells, known) -> dict:
    clean: dict = {}
    for cell, raw in cells:
        if not known(cell):
            raise LeakboundError(f"mass at unknown cell {cell!r}")
        q = as_fraction(raw)
        if q < 0:
            raise LeakboundError(f"negative mass {q} at {cell!r}")
        if q:
            clean[cell] = clean.get(cell, ZERO) + q
    total = sum(clean.values(), ZERO)
    if total != 1:
        raise LeakboundError(f"masses sum to {total}, expected exactly 1")
    return clean


def fraction_columns(channel: DiscreteChannel) -> dict:
    """Each output symbol's column of the channel's rows, as Fractions."""
    rows = channel.rows
    return {y: [row[y] for row in rows] for y in channel.output_alphabet}


def reference_tau_max(channel: DiscreteChannel) -> Q:
    return sum((max(col) for col in fraction_columns(channel).values()), ZERO)


def reference_tau_max2(channel: DiscreteChannel) -> Q:
    total = ZERO
    for col in fraction_columns(channel).values():
        total += sorted(col, reverse=True)[1]
    return total


def reference_doeblin(channel: DiscreteChannel) -> Q:
    return sum((min(col) for col in fraction_columns(channel).values()), ZERO)


def reference_tau_subset(channel: DiscreteChannel, subset) -> Q:
    rows = [channel.row(i) for i in sorted(set(subset))]
    return sum(
        (min(row[y] for row in rows) for y in channel.output_alphabet), ZERO
    )


def reference_joint_distribution(
    net: BayesNet, source_value: str, max_states: int = DEFAULT_MAX_STATES
) -> Pmf:
    """The joint of every non-source node given the source's value, over
    their full product alphabet, enumerated in Fraction arithmetic."""
    src = net.by_id[net.source]
    if source_value not in src.alphabet:
        raise LeakboundError(f"{source_value!r} not in the source alphabet")
    non_source = [n.node_id for n in net.nodes if n.node_id != net.source]
    states = 1
    for nid in non_source:
        states *= len(net.by_id[nid].alphabet)
        if states > max_states:
            raise CapacityError(states, max_states, "joint states")

    order = [nid for nid in topological_sort(net) if nid != net.source]
    cpts = {nid: net.cpt(nid) for nid in non_source}
    row_index = {
        nid: {cfg: k for k, cfg in enumerate(net.parent_configs(nid))}
        for nid in non_source
    }
    partial: dict[tuple, Q] = {(): Q(1)}
    pos = {nid: k for k, nid in enumerate(order)}
    for nid in order:
        node = net.by_id[nid]
        cpt = cpts[nid]
        grown: dict[tuple, Q] = {}
        for assign, weight in partial.items():
            cfg = tuple(
                source_value if p == net.source else assign[pos[p]]
                for p in node.parents
            )
            row = cpt.row(row_index[nid][cfg])
            for value in row.support():
                grown[assign + (value,)] = weight * row[value]
        partial = grown

    decl_pos = [pos[nid] for nid in non_source]
    mass = {}
    for assign, weight in partial.items():
        mass[tuple(assign[k] for k in decl_pos)] = weight
    alphabet = list(product(*(net.by_id[nid].alphabet for nid in non_source)))
    return Pmf(alphabet, mass)


# The Fraction code of the mixture closed forms, their check and the
# coupling penalty, which the integer parts replaced; kept as references.
# A reference part is a tuple of groups (coordinates, ((y, q), ...)), q a
# Fraction, the part's weight folded into its first group.


def reference_mixture(components) -> tuple:
    """The parts of components (weight, [(coordinates, factor, norm)]),
    every quantity a Fraction, with the assembler's skip and sign rules."""
    parts = []
    for weight, groups in components:
        if not weight:
            continue
        factors = [tuple((y, q) for y, q in factor.items() if q) for _, factor, _ in groups]
        if not all(factors):
            continue
        scale = Q(weight)
        for _, _, norm in groups:
            scale /= norm
        if scale < 0 or any(q < 0 for f in factors for _, q in f):
            raise ConstructionError(f"negative mass in a component of weight {weight}")
        if scale != 1:
            factors[0] = tuple((y, scale * q) for y, q in factors[0])
        parts.append(tuple((tuple(coords), f) for (coords, _, _), f in zip(groups, factors)))
    return tuple(parts)


def reference_mass(parts, arity: int) -> dict:
    """Every tuple the reference parts put mass on, masses added up."""
    mass = {}
    for part in parts:
        owner = {c: g for g, (coords, _) in enumerate(part) for c in coords}
        for combo in product(*(entries for _, entries in part)):
            q = Q(1)
            for _, f in combo:
                q *= f
            tup = tuple(combo[owner[c]][0] for c in range(arity))
            mass[tup] = mass.get(tup, ZERO) + q
    return mass


def reference_n4_mixture(ing: ReferenceN4Ingredients) -> tuple:
    weights = reference_n4_mixture_weights(ing)

    def free(i):
        return ((i,), ing.r_num[i], ing.r_norm[i])

    def tied(pair):
        return (pair, ing.t[pair], ing.n[pair])

    components = [(ing.tau, [((0, 1, 2, 3), ing.p_min, ing.tau)])]
    for i in range(4):
        trio = tuple(j for j in range(4) if j != i)
        w_trio = ing.tau_by_subset[frozenset(trio)] - ing.tau
        components.append((w_trio, [(trio, ing.s_trio[frozenset(trio)], w_trio), free(i)]))
    for pair in ALL_PAIRS:
        i, j = sorted(complement_pair(pair))
        components.append((weights.beta[pair], [tied(pair), free(i), free(j)]))
    for pair in ANCHOR_PAIRS:
        components.append((weights.alpha[pair], [tied(pair), tied(complement_pair(pair))]))
    components.append((weights.independent, [free(i) for i in range(4)]))
    return reference_mixture(components)


def reference_check_mixture(marginals, parts, tuples=()) -> None:
    """The closed-form check of a minimal pinned Y-coupling, on Fractions:
    reference parts and listed ``(tuple, mass)`` pairs, the tuples first."""
    got = [{} for _ in marginals]
    diagonal, union = {}, ZERO
    for tup, q in tuples:
        for i, y in enumerate(tup):
            got[i][y] = got[i].get(y, ZERO) + q
        union += len(set(tup)) * q
        if len(set(tup)) == 1:
            diagonal[tup[0]] = diagonal.get(tup[0], ZERO) + q
    for part in parts:
        seen, totals = set(), []
        for _, entries in part:
            symbols = {y for y, _ in entries}
            if seen & symbols:
                raise ConstructionError(f"part with overlapping group supports at {seen & symbols}")
            seen |= symbols
            totals.append(sum((q for _, q in entries), ZERO))
        union += len(part) * prod(totals)
        for g, (coords, entries) in enumerate(part):
            others = prod(totals[:g] + totals[g + 1:])
            for y, q in entries:
                for i in coords:
                    got[i][y] = got[i].get(y, ZERO) + q * others
                if len(part) == 1:
                    diagonal[y] = diagonal.get(y, ZERO) + q
    for i, p in enumerate(marginals):
        if got[i] != p.mass:
            raise ConstructionError(f"ingredient marginal {i} is {got[i]}, declared {p.mass}")
    target = tau_max(DiscreteChannel(marginals))
    if union != target:
        raise ConstructionError(f"ingredient coupling union mass {union} != tau_max {target}")
    for y in marginals[0].alphabet:
        tied, floor = diagonal.get(y, ZERO), min(p[y] for p in marginals)
        if tied != floor:
            raise ConstructionError(f"ingredient diagonal at {y!r} is {tied}, needs {floor}")


def reference_interval_parts(y_pmfs) -> tuple:
    """The interval coupling of ``couplings._interval_parts`` as
    reference parts, one per tuple, laid out on [0, 1] in Fractions.

    Every row gets an explicit list of (start, end, symbol) segments: in
    the columns' order of first appearance, row by row, symbol y gets a
    core of length max2(y); the argmax row (lowest on a tie) holds y on the
    whole core and every other row on a prefix of length P_i(y). Each
    argmax row then fills the gaps it left free, in order, with its
    excesses P_i(y) - max2(y). A tuple is read off every cell between two
    segment ends. Refuses as the interval coupling does when the cores
    overrun 1, that is when tau_max2 > 1."""
    y_pmfs = tuple(y_pmfs)
    m = len(y_pmfs)
    columns: dict = {}
    for i, p in enumerate(y_pmfs):
        for y, q in p.mass.items():
            columns.setdefault(y, [ZERO] * m)[i] = q
    segments = [[] for _ in range(m)]
    excesses = [[] for _ in range(m)]
    end = ZERO
    for y, col in columns.items():
        arg = col.index(max(col))
        core = max((q for i, q in enumerate(col) if i != arg), default=ZERO)
        for i, q in enumerate(col):
            if held := (core if i == arg else q):
                segments[i].append((end, end + held, y))
        if col[arg] > core:
            excesses[arg].append((y, col[arg] - core))
        end += core
    if end > 1:
        raise PreconditionError(TAU_MAX2_CONDITION, end)
    for segs, pours in zip(segments, excesses):
        gaps, at = [], ZERO
        for lo, hi, _ in sorted(segs) + [(Q(1), Q(1), None)]:
            if at < lo:
                gaps.append([at, lo])
            at = max(at, hi)
        for y, left in pours:
            while left:
                gap = gaps[0]
                step = min(left, gap[1] - gap[0])
                segs.append((gap[0], gap[0] + step, y))
                gap[0] += step
                left -= step
                if gap[0] == gap[1]:
                    gaps.pop(0)
    cuts = sorted({bound for segs in segments for lo, hi, _ in segs for bound in (lo, hi)})
    mass: dict = {}
    for lo, hi in zip(cuts, cuts[1:]):
        tup = tuple(next(y for a, b, y in segs if a <= lo < b) for segs in segments)
        mass[tup] = mass.get(tup, ZERO) + hi - lo
    return tuple(
        tuple(
            (tuple(i for i, s in enumerate(t) if s == y), ((y, q if k == 0 else Q(1)),))
            for k, y in enumerate(dict.fromkeys(t))
        )
        for t, q in mass.items()
    )


def reference_minimal_y_coupling(y_pmfs, max_variables=DEFAULT_MAX_STATES) -> tuple:
    """The reference parts of a minimal pinned Y-coupling, checked; each
    route refuses its own failing condition. At m >= 5 the interval
    coupling's union mass must also be the optimum of the diagonal-pinned
    LP."""
    y_pmfs = tuple(y_pmfs)
    m = len(y_pmfs)
    if m == 4:
        parts = reference_n4_mixture(reference_n4_ingredients(y_pmfs))
    else:
        parts = reference_interval_parts(y_pmfs)
    reference_check_mixture(y_pmfs, parts)
    if m >= 5:
        union = sum((q * len(set(t)) for t, q in reference_mass(parts, m).items()), ZERO)
        optimum = min_union_coupling_diag(y_pmfs, max_variables=max_variables).optimal_value
        if union != optimum:
            raise ConstructionError(f"interval union mass {union} != LP optimum {optimum}")
    return parts


def reference_coupling_penalty(sources, max_variables=DEFAULT_MAX_STATES) -> Q:
    """f of the simultaneous coupling read off its G2/G3 parts, every
    residual r_i(x | y) a Fraction."""
    sources = tuple(sources)
    columns = fraction_columns(DiscreteChannel(sources))
    y_alphabet = sources[0].y_alphabet
    y_marginals = [s.y_marginal() for s in sources]
    y_parts = reference_minimal_y_coupling(y_marginals, max_variables)

    p_min = {cell: min(columns[cell]) for cell in sources[0].mass}
    p_ymin = {y: min(p[y] for p in y_marginals) for y in y_alphabet}
    floor = push_forward(p_min, itemgetter(1))
    residual = []
    for s, p in zip(sources, y_marginals):
        rest = {y: q - floor.get(y, ZERO) for y, q in p.mass.items()}
        lists = {y: {} for y in y_alphabet}
        for (x, y), q in s.mass.items():
            if d := q - p_min.get((x, y), ZERO):
                lists[y][x] = d / rest[y]
        residual.append(lists)
    tied = tuple((y, w) for y in y_alphabet if (w := p_ymin[y] - floor.get(y, ZERO)))
    parts = [part for part in y_parts if len(part) > 1]
    parts.append(((tuple(range(len(sources))), tied),))

    f = sum(p_min.values(), ZERO)
    for part in parts:
        for x in sources[0].x_alphabet:
            term = len(part)
            for coords, entries in part:
                term *= sum((
                    q * prod(residual[i][y].get(x, ZERO) for i in coords)
                    for y, q in entries
                ), ZERO)
            f += term
    return f
