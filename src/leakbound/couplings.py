"""Couplings of PMFs on a shared alphabet and closed-form constructions.

Two explicit constructions live here:

* ``maximal_coupling_pair`` -- the classical two-variable maximal coupling
  (diagonal mass min{p, q}, residuals coupled independently), which attains
  union mass 1 + TV(p, q) = tau_max(p, q).

* ``build_n4_coupling`` -- a four-variable mixture coupling that attains
  union mass tau_max(P_1, ..., P_4) whenever

      min{N01,N23} + min{N02,N13} + min{N03,N12} >= tau_max2 - 1,

  where N_ij are the pair-residual normalizers defined below. The mixture
  is a convex combination of: a fully tied diagonal, four one-free-
  coordinate components, six two-free-coordinate components, three
  pair-of-tied-pairs components, and (when tau_max2 < 1) one component of
  four independent residuals absorbing the leftover weight 1 - tau_max2.
  Any component whose weight is zero is dropped before its normalized
  factors are ever formed, so no 0/0 ratio is evaluated.

The existence condition is decided in one place, ``choose_abc``, which
refuses a negative slack with ``PreconditionError(FOUR_WAY_CONDITION,
slack)``. ``build_n4_coupling`` reaches it through ``n4_mixture_weights``
and does not check beforehand. ``n4_condition`` evaluates the same slack
without building, for callers that only ask: the ``couple --mode n4``
report, and ``simultaneous.coupling_feasibility`` for the V-side
precondition of the bounds. A caller that asked first builds from the
ingredients it holds with ``assemble_n4_coupling``, so they are computed
once.

Indices are 0-based throughout: rows are numbered 0..3 and the pair keys
are frozensets of row indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import ConstructionError, LeakboundError, PreconditionError
from .measures import (
    ZERO,
    DiscreteChannel,
    Pmf,
    Symbol,
    exact_masses,
    push_forward,
    tau_max,
    tau_max2,
    tau_subset,
)

Pair = frozenset

# The three pairings of {0,1,2,3} into two disjoint pairs, anchored at 0.
ANCHOR_PAIRS = (Pair({0, 1}), Pair({0, 2}), Pair({0, 3}))
ALL_PAIRS = tuple(Pair(p) for p in combinations(range(4), 2))
ALL_TRIPLES = tuple(frozenset(t) for t in combinations(range(4), 3))

# The label of every refusal by the four-way existence condition.
FOUR_WAY_CONDITION = "four-way pair-capacity condition"


def complement_pair(pair: Pair) -> Pair:
    return Pair(set(range(4)) - set(pair))


class Coupling:
    """A joint PMF over m copies of one alphabet with declared marginals.

    Construction checks, exactly: non-negative masses summing to 1, and
    for every coordinate i the projection onto coordinate i equals the
    declared i-th marginal.
    """

    __slots__ = ("alphabet", "arity", "mass", "marginals")

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        arity: int,
        mass: Mapping[tuple, object],
        marginals: Sequence[Pmf],
    ):
        alphabet = tuple(alphabet)
        marginals = tuple(marginals)
        if arity < 1:
            raise LeakboundError("coupling arity must be >= 1")
        if len(marginals) != arity:
            raise LeakboundError("need one declared marginal per coordinate")
        for p in marginals:
            if p.alphabet != alphabet:
                raise LeakboundError("declared marginal on a different alphabet")
        known = set(alphabet)
        clean = exact_masses(
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
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "mass", clean)
        object.__setattr__(self, "marginals", marginals)

    def __setattr__(self, name, value):
        raise AttributeError("Coupling is immutable")

    def probability(self, tup: tuple) -> Fraction:
        return self.mass.get(tuple(tup), ZERO)

    def sorted_items(self):
        """Support in lexicographic alphabet-index order (deterministic)."""
        index = {sym: k for k, sym in enumerate(self.alphabet)}
        return sorted(self.mass.items(), key=lambda kv: tuple(index[s] for s in kv[0]))

    def __repr__(self):
        return f"Coupling(arity={self.arity}, support={len(self.mass)})"


def union_mass(coupling: Coupling) -> Fraction:
    """sum_y P(union_i {Y_i = y}): each support tuple pays its number of
    distinct coordinate values."""
    return sum(
        (q * len(set(tup)) for tup, q in coupling.mass.items()), ZERO
    )


def diagonal_mass(coupling: Coupling, sym: Symbol) -> Fraction:
    return coupling.probability((sym,) * coupling.arity)


def maximal_coupling_pair(p: Pmf, q: Pmf) -> Coupling:
    """Classical maximal coupling: tie min{p,q}, couple residuals
    independently. Union mass equals 1 + TV(p, q) = tau_max(p, q)."""
    if p.alphabet != q.alphabet:
        raise LeakboundError("maximal coupling needs a shared alphabet")
    overlap = {y: min(p[y], q[y]) for y in p.alphabet}
    omega = sum(overlap.values(), ZERO)
    mass: dict[tuple, Fraction] = {}
    for y, m in overlap.items():
        if m:
            mass[(y, y)] = m
    if omega != 1:
        rest = 1 - omega
        left = {y: p[y] - overlap[y] for y in p.alphabet if p[y] > overlap[y]}
        right = {y: q[y] - overlap[y] for y in q.alphabet if q[y] > overlap[y]}
        for y1, a in left.items():
            for y2, b in right.items():
                mass[(y1, y2)] = mass.get((y1, y2), ZERO) + a * b / rest
    return Coupling(p.alphabet, 2, mass, [p, q])


@dataclass(frozen=True)
class N4Ingredients:
    """Every scalar and per-symbol quantity the four-PMF mixture needs.

    ``tau_by_subset`` maps each row subset of size >= 2 to tau_I.
    ``r_num[i]`` is the unnormalized residual of row i (the part of P_i
    strictly above the other three rows) and ``r_norm[i]`` its total,
    computed by the symmetric inclusion-exclusion pattern

        N_Ri = 1 - sum_{j != i} tau_ij + sum_{j<k != i} tau_ijk - tau.

    ``t[{i,j}]`` is the pair residual
        T_ij(y) = min(P_i,P_j) - min(P_i,P_j,P_k) - min(P_i,P_j,P_l) + P_min
    (equivalently max{0, min(P_i,P_j) - max(P_k,P_l)}), with total N_ij.
    """

    pmfs: tuple[Pmf, Pmf, Pmf, Pmf]
    tau: Fraction
    tau_max: Fraction
    tau_max2: Fraction
    tau_by_subset: Mapping[frozenset, Fraction]
    p_min: Mapping[Symbol, Fraction]
    r_num: tuple[Mapping[Symbol, Fraction], ...]
    r_norm: tuple[Fraction, Fraction, Fraction, Fraction]
    t: Mapping[Pair, Mapping[Symbol, Fraction]]
    n: Mapping[Pair, Fraction]

    @property
    def alphabet(self):
        return self.pmfs[0].alphabet

    @property
    def tau_pair(self) -> Fraction:
        return sum((self.tau_by_subset[p] for p in ALL_PAIRS), ZERO)

    @property
    def tau_trip(self) -> Fraction:
        return sum((self.tau_by_subset[t] for t in ALL_TRIPLES), ZERO)

    def condition_slack(self) -> Fraction:
        """min{N01,N23} + min{N02,N13} + min{N03,N12} - (tau_max2 - 1).

        The mixture exists iff this is >= 0.
        """
        cap = sum(
            (min(self.n[p], self.n[complement_pair(p)]) for p in ANCHOR_PAIRS),
            ZERO,
        )
        return cap - (self.tau_max2 - 1)


def n4_ingredients(pmfs: Sequence[Pmf]) -> N4Ingredients:
    pmfs = tuple(pmfs)
    if len(pmfs) != 4:
        raise LeakboundError("the four-way construction needs exactly 4 PMFs")
    alphabet = pmfs[0].alphabet
    for p in pmfs:
        if p.alphabet != alphabet:
            raise LeakboundError("all four PMFs must share one alphabet")
    channel = DiscreteChannel(pmfs)

    tau_by_subset: dict[frozenset, Fraction] = {}
    for size in (2, 3, 4):
        for subset in combinations(range(4), size):
            tau_by_subset[frozenset(subset)] = tau_subset(channel, subset)
    tau = tau_by_subset[frozenset(range(4))]

    p_min = {y: min(p[y] for p in pmfs) for y in alphabet}

    r_num: list[dict[Symbol, Fraction]] = []
    r_norm: list[Fraction] = []
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
            # Would indicate the inclusion-exclusion pattern is wrong for
            # this family; abort loudly rather than construct garbage.
            raise ConstructionError(
                f"residual normalizer mismatch for row {i}: "
                f"sum of numerators {total} != {norm}"
            )
        r_num.append(num)
        r_norm.append(norm)

    t: dict[Pair, dict[Symbol, Fraction]] = {}
    n: dict[Pair, Fraction] = {}
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

    return N4Ingredients(
        pmfs=pmfs,
        tau=tau,
        tau_max=tau_max(channel),
        tau_max2=tau_max2(channel),
        tau_by_subset=tau_by_subset,
        p_min=p_min,
        r_num=tuple(r_num),
        r_norm=tuple(r_norm),
        t=t,
        n=n,
    )


def n4_condition(pmfs: Sequence[Pmf]) -> tuple[bool, N4Ingredients]:
    """Evaluate the existence condition for the four-way mixture, exactly."""
    ing = n4_ingredients(pmfs)
    return ing.condition_slack() >= 0, ing


@dataclass(frozen=True)
class MixtureWeights:
    """Weights of the four-way mixture.

    ``alpha`` is keyed by the three anchored pairs {0,1}, {0,2}, {0,3};
    ``beta`` by all six pairs; ``independent`` is the weight of the
    all-residuals-independent component (positive only when tau_max2 < 1).
    """

    alpha: Mapping[Pair, Fraction]
    beta: Mapping[Pair, Fraction]
    independent: Fraction


def choose_abc(ing: N4Ingredients) -> tuple[Fraction, Fraction, Fraction]:
    """Deterministic greedy split of the budget tau_max2 - 1 across the
    three pair-pairings, in the fixed order (01/23), (02/13), (03/12).

    Each share is capped by min of the two opposite-pair normalizers; the
    existence condition guarantees the caps absorb the whole budget;
    a negative slack raises ``PreconditionError``.
    """
    slack = ing.condition_slack()
    if slack < 0:
        raise PreconditionError(FOUR_WAY_CONDITION, slack)
    budget = ing.tau_max2 - 1
    if budget <= 0:
        return (Fraction(1), ZERO, ZERO)
    caps = [min(ing.n[p], ing.n[complement_pair(p)]) for p in ANCHOR_PAIRS]
    a = min(Fraction(1), caps[0] / budget)
    b = min(1 - a, caps[1] / budget)
    c = 1 - a - b
    if c * budget > caps[2]:
        raise ConstructionError("greedy split exceeded the third capacity")
    return (a, b, c)


def n4_mixture_weights(ing: N4Ingredients) -> MixtureWeights:
    a, b, c = choose_abc(ing)
    budget = ing.tau_max2 - 1
    if budget >= 0:
        alpha = {
            ANCHOR_PAIRS[0]: a * budget,
            ANCHOR_PAIRS[1]: b * budget,
            ANCHOR_PAIRS[2]: c * budget,
        }
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
    return MixtureWeights(alpha=alpha, beta=beta, independent=independent)


def _weight_accounting(ing: N4Ingredients, w: MixtureWeights) -> Fraction:
    tied_three = sum(
        (ing.tau_by_subset[frozenset(set(range(4)) - {i})] - ing.tau for i in range(4)),
        ZERO,
    )
    return (
        ing.tau
        + tied_three
        + sum(w.beta.values(), ZERO)
        + sum(w.alpha.values(), ZERO)
        + w.independent
    )


def build_n4_coupling(pmfs: Sequence[Pmf]) -> Coupling:
    """Assemble the four-way mixture coupling and verify it exactly.

    Raises ``PreconditionError`` when the existence condition fails and
    ``ConstructionError`` on any internal inconsistency (negative mass,
    weights not summing to 1). The returned coupling attains union mass
    tau_max and has, for every subset I with |I| >= 2 and every symbol y,
    intersection probability P(all-of-I equal y) = min_{i in I} P_i(y).
    """
    return assemble_n4_coupling(n4_ingredients(pmfs))


def assemble_n4_coupling(ing: N4Ingredients) -> Coupling:
    """``build_n4_coupling`` from ingredients already computed."""
    weights = n4_mixture_weights(ing)
    total = _weight_accounting(ing, weights)
    if total != 1:
        raise ConstructionError(f"mixture weights sum to {total}, expected 1")

    alphabet = ing.alphabet
    mass: dict[tuple, Fraction] = {}

    def add(tup: tuple, q: Fraction):
        if q < 0:
            raise ConstructionError(f"negative mass {q} at tuple {tup!r}")
        if q:
            mass[tup] = mass.get(tup, ZERO) + q

    # Fully tied diagonal: weight tau times P_min(y)/tau collapses to P_min.
    for y, q in ing.p_min.items():
        add((y, y, y, y), q)

    # One free coordinate i, other three tied at y. The tied factor's
    # normalizer tau_{jkl} - tau cancels against the component weight.
    for i in range(4):
        others = frozenset(set(range(4)) - {i})
        tied_weight = ing.tau_by_subset[others] - ing.tau
        if tied_weight == 0:
            continue
        norm_i = ing.r_norm[i]
        rows = [ing.pmfs[j] for j in sorted(others)]
        for y in alphabet:
            tied = min(r[y] for r in rows) - ing.p_min[y]
            if not tied:
                continue
            for yi, num in ing.r_num[i].items():
                tup = [y, y, y, y]
                tup[i] = yi
                add(tuple(tup), tied * num / norm_i)

    # Two free coordinates i < j, complement pair tied via T_kl/N_kl.
    for pair in ALL_PAIRS:
        i, j = sorted(pair)
        comp = complement_pair(pair)
        k, l = sorted(comp)
        wt = weights.beta[comp]
        if wt == 0:
            continue
        scale = wt / (ing.r_norm[i] * ing.r_norm[j] * ing.n[comp])
        for y, tval in ing.t[comp].items():
            for yi, ai in ing.r_num[i].items():
                for yj, aj in ing.r_num[j].items():
                    tup = [y, y, y, y]
                    tup[i] = yi
                    tup[j] = yj
                    add(tuple(tup), scale * tval * ai * aj)

    # Two tied pairs: coordinates of `pair` at y, of the complement at y2.
    for pair in ANCHOR_PAIRS:
        wt = weights.alpha[pair]
        if wt == 0:
            continue
        comp = complement_pair(pair)
        scale = wt / (ing.n[pair] * ing.n[comp])
        for y, tval in ing.t[pair].items():
            for y2, tval2 in ing.t[comp].items():
                tup = [None] * 4
                for idx in pair:
                    tup[idx] = y
                for idx in comp:
                    tup[idx] = y2
                add(tuple(tup), scale * tval * tval2)

    # Four independent residuals; absorbs 1 - tau_max2 when tau_max2 < 1.
    if weights.independent:
        scale = weights.independent
        for norm in ing.r_norm:
            scale /= norm
        for y0, a0 in ing.r_num[0].items():
            for y1, a1 in ing.r_num[1].items():
                for y2, a2 in ing.r_num[2].items():
                    for y3, a3 in ing.r_num[3].items():
                        add((y0, y1, y2, y3), scale * a0 * a1 * a2 * a3)

    return Coupling(alphabet, 4, mass, ing.pmfs)


def intersection_violations(coupling: Coupling, pmfs: Sequence[Pmf]) -> list[tuple]:
    """All (subset, symbol, got, want) where the coupling's probability of
    the selected coordinates all equalling the symbol differs from the
    minimum of the selected marginals."""
    pmfs = tuple(pmfs)
    m = coupling.arity
    if len(pmfs) != m:
        raise LeakboundError("need one PMF per coupling coordinate")
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


def verify_intersection_property(coupling: Coupling, pmfs: Sequence[Pmf]) -> bool:
    """True iff P(intersection of {Y_i = y}, i in I) = min_{i in I} P_i(y)
    for every subset I with |I| >= 2 and every symbol y."""
    return not intersection_violations(coupling, pmfs)


def independent_coupling(pmfs: Sequence[Pmf]) -> Coupling:
    """Product coupling; a baseline that generally has no special structure."""
    pmfs = tuple(pmfs)
    alphabet = pmfs[0].alphabet
    mass: dict[tuple, Fraction] = {}

    def rec(prefix: tuple, acc: Fraction, rest: tuple):
        if not rest:
            mass[prefix] = acc
            return
        head, *tail = rest
        for y in head.support():
            rec(prefix + (y,), acc * head[y], tuple(tail))

    rec((), Fraction(1), pmfs)
    return Coupling(alphabet, len(pmfs), mass, pmfs)
