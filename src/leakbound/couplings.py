"""Couplings of PMFs on a shared alphabet and closed-form constructions.

Every closed form here is a mixture: a weighted sum of parts, each a
product of per-group factors over coordinate groups tied to one symbol.
The four-way form computes its ingredients and hands its components to
``_mixture``, which owns the rules: a component of zero weight or with
an empty factor is skipped before any normalizer is divided by, so no
0/0 ratio is evaluated, and a negative mass is refused. The interval
coupling lays out its tuples directly and hands them back as one listed
law, ``Mixture.tuples``. A ``Mixture`` lists the tuples of its parts only
in ``Mixture.coupling``; the bounds read their penalty off its parts and
its listed tuples (``simultaneous.coupling_penalty``).

The mixtures are built on integers. Every weight, factor entry and norm
is a numerator over the common denominator of the marginals' law
(``DiscreteChannel.den`` and ``.columns``): ``_interval_parts`` takes
that law directly, and ``n4_ingredients`` reads it into the
``N4Ingredients`` and ``MixtureWeights`` that ``n4_mixture`` takes. A
part is ``(den, groups)``, its integer entries over its own denominator,
and a listed tuple's mass is a numerator over the marginals' den, so a
``Fraction`` is built only for a message and for
``N4Ingredients.condition_slack``; ``Mixture.coupling`` lists the tuples
as numerators over the LCM of those denominators, an ``ExactLaw`` whose
masses are built only when read. Besides the product
``independent_coupling`` (a baseline), there
are two closed forms, each a minimal coupling with a pinned diagonal
(P(all coordinates equal y) = min_i P_i(y)). The groups of one four-way
part have pairwise disjoint factor supports (T_p > 0 needs both rows of
the pair p strictly above the other two, r_i > 0 needs row i strictly
above all the others), so a part of g groups puts mass only on tuples of
exactly g distinct symbols.

* ``_interval_parts``, the interval coupling of m marginals, which
  exists iff tau_max2 <= 1: every row holds each symbol on subintervals
  of [0, 1), laid out so that rows overlap on y only inside y's core,
  each cell between breakpoints one listed tuple. It has the full
  intersection property (every subset I of two or more coordinates ties
  on y with mass min_{i in I} P_i(y)). ``maximal_coupling_pair`` (m = 2, union mass
  1 + TV(p, q)) and ``three_way_coupling`` (m = 3) list it.

* ``build_n4_coupling`` (``n4_mixture``) -- a four-variable mixture
  coupling that attains union mass tau_max(P_1, ..., P_4) whenever

      min{N01,N23} + min{N02,N13} + min{N03,N12} >= tau_max2 - 1,

  where N_ij are the pair-residual normalizers defined below, a condition
  that tau_max2 <= 1 implies. The mixture is a convex combination of: a
  fully tied diagonal, four one-free-coordinate components, six
  two-free-coordinate components, three pair-of-tied-pairs components,
  and (when tau_max2 < 1) one component of four independent residuals
  absorbing the leftover weight 1 - tau_max2.
  ``n4_ingredients`` reads each column (P_0(y), ..., P_3(y)) once and
  ranks its entries: the minimum over a row subset is the entry of its
  lowest-ranked row (``RANKED``), so every tau_I, tau_max (top entry),
  tau_max2 (second entry), residual and pair residual accumulate in one
  pass over the alphabet.

The four-way existence condition is decided in one place,
``n4_mixture_weights``, which refuses a negative slack with
``PreconditionError(FOUR_WAY_CONDITION, slack)``. ``n4_mixture`` reaches
it there and does not check beforehand. ``n4_condition`` evaluates the
same slack without building, for the ``couple --mode n4`` report, which
then hands its ingredients to ``n4_mixture``. The bounds log the slack
of the ingredients their Y-coupling is built from
(``simultaneous._minimal_parts``).

Indices are 0-based throughout: rows are numbered 0..3 and the pair keys
are frozensets of row indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConstructionError, LeakboundError, PreconditionError, exact_str
from .measures import (
    ZERO,
    DiscreteChannel,
    ExactLaw,
    Pmf,
    Symbol,
    exact_law,
    numerators,
)

Pair = frozenset

# The three pairings of {0,1,2,3} into two disjoint pairs, anchored at 0.
ANCHOR_PAIRS = (Pair({0, 1}), Pair({0, 2}), Pair({0, 3}))
ALL_PAIRS = tuple(Pair(p) for p in combinations(range(4), 2))

# The labels of every refusal by the four-way existence condition and by
# tau_max2 <= 1.
FOUR_WAY_CONDITION = "four-way pair-capacity condition"
TAU_MAX2_CONDITION = "tau_max2 <= 1"


def complement_pair(pair: Pair) -> Pair:
    return Pair(set(range(4)) - set(pair))


# Every row subset of size >= 2, in the key order of ``tau_by_subset``;
# the pairs come first, in the order of ``ALL_PAIRS``.
SUBSETS = tuple(frozenset(s) for size in (2, 3, 4) for s in combinations(range(4), size))
TRIPLES = slice(6, 10)  # where the triples sit in ``SUBSETS``, after the six pairs
# Per pair p of ``ALL_PAIRS``, the indices in ``SUBSETS`` of p plus k and
# of p plus l, {k, l} the complement of p.
PAIR_TRIPLES = tuple(
    tuple(SUBSETS.index(p | {k}) for k in sorted(complement_pair(p))) for p in ALL_PAIRS
)
# For each ranking of the four rows (ascending, ties by row), the rank of
# every subset's lowest-ranked row: the subset's minimum is that entry.
RANKED = {
    order: tuple(min(order.index(i) for i in subset) for subset in SUBSETS)
    for order in permutations(range(4))
}


class Coupling:
    """A joint PMF over m copies of one alphabet with declared marginals.

    Construction checks, exactly: non-negative masses summing to 1
    (``exact_law``, on masses given as any mapping or as an ``ExactLaw``),
    and for every coordinate i the projection onto coordinate i equals
    the declared i-th marginal. ``mass`` keeps the masses as the
    validated ``ExactLaw``, integer numerators over one denominator,
    which every check and sum reads. ``marginals`` is one
    ``Pmf`` per coordinate or their ``DiscreteChannel``, kept as ``law``;
    each projection is summed on the numerators and cross-multiplied
    against that law, so no marginal ``Pmf`` is built or looked up.
    """

    __slots__ = ("alphabet", "arity", "mass", "law")

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        arity: int,
        mass: Mapping[tuple, object],
        marginals: Sequence[Pmf] | DiscreteChannel,
    ):
        alphabet = tuple(alphabet)
        if arity < 1:
            raise LeakboundError("coupling arity must be >= 1")
        if not isinstance(marginals, DiscreteChannel):
            marginals = tuple(marginals)
            if len(marginals) != arity:
                raise LeakboundError("need one declared marginal per coordinate")
            # Refuses marginals on mixed alphabets.
            marginals = DiscreteChannel(marginals)
        elif marginals.n != arity:
            raise LeakboundError("need one declared marginal per coordinate")
        if marginals.output_alphabet != alphabet:
            raise LeakboundError("declared marginal on a different alphabet")
        known = set(alphabet)

        def on_alphabet(tup):
            return len(tup) == arity and known.issuperset(tup)

        den = mass.den if isinstance(mass, ExactLaw) else None
        cells = (mass if den is None else mass.nums).items()
        clean = exact_law(((tuple(t), q) for t, q in cells), on_alphabet, den)
        scale = clean.den
        got = [{} for _ in range(arity)]
        for tup, num in clean.nums.items():
            for marginal, y in zip(got, tup):
                marginal[y] = marginal.get(y, 0) + num
        den, columns = marginals.den, marginals.columns
        for i, marginal in enumerate(got):
            for y in alphabet:
                have, want = marginal.get(y, 0), columns[y][i] if y in columns else 0
                if have * den != want * scale:
                    raise LeakboundError(
                        f"coordinate {i} marginal at {y!r} is {exact_str(Fraction(have, scale))}"
                        f", declared {exact_str(Fraction(want, den))}"
                    )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "mass", clean)
        object.__setattr__(self, "law", marginals)

    @property
    def marginals(self) -> tuple[Pmf, ...]:
        """The declared marginals, built from their law when asked."""
        return self.law.rows

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
    distinct coordinate values, summed on the masses' numerators."""
    den, nums = numerators(coupling.mass)
    return Fraction(sum(num * len(set(tup)) for tup, num in nums.items()), den)


class Mixture(NamedTuple):
    """A closed-form coupling of the channel ``marginals``: product
    ``parts``, unlisted, and listed ``tuples``. The four-way form fills
    only ``parts``, the interval coupling only ``tuples``.

    A part is ``(den, groups)``: a positive integer and a tuple of groups
    ``(coordinates, entries)``, ``entries`` the nonzero ``(y, e)`` of the
    group's factor as integers, the part's weight folded into its first
    group. The part puts prod_g e_g(y_g) / den on the tuple whose
    coordinates in group g all equal y_g. ``tuples`` is one integer law
    of m-tuples: ``(tuple, num)`` pairs, each tuple once, num its mass
    over ``marginals.den``.
    """

    marginals: DiscreteChannel
    parts: tuple[tuple[int, tuple[tuple[tuple[int, ...], tuple[tuple[Symbol, int], ...]], ...]], ...]
    tuples: tuple[tuple[tuple, int], ...] = ()

    def coupling(self) -> Coupling:
        """List every tuple, adding up its numerators over the LCM of the
        part denominators and, for listed tuples, the marginals' den, and
        validate them, kept as an ``ExactLaw``, against the marginals'
        law; no ``Fraction`` is built per tuple."""
        arity, den = self.marginals.n, self.marginals.den
        scale = lcm(den if self.tuples else 1, *(part_den for part_den, _ in self.parts))
        lift = scale // den
        nums = {tup: num * lift for tup, num in self.tuples}
        for part in self.parts:
            lift = scale // part[0]
            for tup, num in _list_part(part, arity):
                nums[tup] = nums.get(tup, 0) + num * lift
        return Coupling(self.marginals.output_alphabet, arity, ExactLaw(scale, nums), self.marginals)


def _list_part(part: tuple, arity: int) -> Iterator[tuple[tuple, int]]:
    """Every (tuple, numerator over the part's den) that one mixture part
    puts mass on."""
    _, groups = part
    # The group that sets each coordinate's symbol.
    owner = {c: g for g, (coords, _) in enumerate(groups) for c in coords}
    pick = [owner[c] for c in range(arity)]
    for combo in product(*(entries for _, entries in groups)):
        num = combo[0][1]
        for _, e in combo[1:]:
            num *= e
        yield tuple([combo[g][0] for g in pick]), num


def _mixture(components: Iterable[tuple], den: int) -> tuple:
    """The parts of the mixture with the given components.

    A component is ``(weight, groups)`` and a group is ``(coordinates,
    factor, norm)``; the weight, the factor entries and the norm are
    integer numerators over ``den``, and the component puts
    (weight / den) * prod_g factor_g(y_g) / norm_g on the tuple whose
    coordinates in group g all equal y_g. Zero factor entries are dropped,
    and a component of zero weight or with an empty factor is skipped
    before any norm is divided by, so no 0/0 is evaluated. A negative
    factor entry or weight / prod_g norm_g, the only ways to a negative
    mass, raise ``ConstructionError``. The part's denominator is den *
    prod_g norm_g, reduced against the weight.
    """
    # Each distinct factor is filtered and sign-checked once per call; the
    # entry holds the factor, so its id is not reused while the call runs.
    prepared: dict[int, tuple] = {}
    parts = []
    for weight, groups in components:
        if not weight:
            continue
        for _, factor, _ in groups:
            if id(factor) not in prepared:
                kept = tuple((y, q) for y, q in factor.items() if q)
                prepared[id(factor)] = (factor, kept, any(q < 0 for _, q in kept))
        factors = [prepared[id(factor)][1:] for _, factor, _ in groups]
        if not all(kept for kept, _ in factors):
            continue
        part_den = den * prod(norm for _, _, norm in groups)
        if (weight < 0) != (part_den < 0) or any(negative for _, negative in factors):
            raise ConstructionError(
                f"negative mass in a component of weight {Fraction(weight, den)}"
            )
        common = gcd(weight, part_den)
        weight, part_den = abs(weight) // common, abs(part_den) // common
        entries = [kept for kept, _ in factors]
        if weight != 1:
            entries[0] = tuple((y, weight * q) for y, q in entries[0])
        parts.append((part_den, tuple(
            (tuple(coords), f) for (coords, _, _), f in zip(groups, entries)
        )))
    return tuple(parts)


def _interval_parts(den: int, columns: Mapping[Symbol, tuple[int, ...]], m: int) -> tuple[int, tuple]:
    """The core total and the listed tuples of a minimal pinned Y-coupling
    of m marginals (integer numerators over ``den``) laid out on [0, den): each
    symbol y gets a core of length max2(y), the second largest entry of
    its column (0 at m = 1). There every row but y's argmax (the lowest
    row on a tie) holds y on a prefix of length P_i(y), and the argmax row
    on the whole core; each argmax row then pours its excess into its own
    free gaps, in order. Only the argmax row holds y outside y's core, so
    the union mass is tau_max and the diagonal min_i P_i(y). Each cell
    between breakpoints is one ``(tuple, num)`` pair over ``den`` (equal
    tuples merged), at most 2m|Y| + 2. The core total, tau_max2 over ``den``, refuses with
    ``PreconditionError(TAU_MAX2_CONDITION, tau_max2)`` past ``den``."""
    cores, end = [], 0
    for y, col in columns.items():
        arg = col.index(max(col))
        core = max(col[:arg] + col[arg + 1:], default=0)
        cores.append((y, col, arg, end, core))
        end += core
    if end > den:
        raise PreconditionError(TAU_MAX2_CONDITION, Fraction(end, den))
    # Per row, the symbol it holds from each of its segment starts on.
    starts, gaps = [{} for _ in range(m)], [[] for _ in range(m)]
    for y, col, arg, at, core in cores:
        for i, q in enumerate(col):
            held = core if i == arg else q
            if held:
                starts[i][at] = y
            gaps[i].append((at + held, at + core))
    for i, row_gaps in enumerate(gaps):
        pours = ((y, col[i] - core) for y, col, arg, _, core in cores if arg == i and col[i] > core)
        left = 0
        for lo, hi in row_gaps + [(end, den)]:
            while lo < hi:
                if not left:
                    y, left = next(pours)
                starts[i][lo] = y
                step = min(left, hi - lo)
                lo, left = lo + step, left - step
    cuts = sorted({at for row in starts for at in row})
    labels, mass = (None,) * m, {}
    for lo, hi in zip(cuts, cuts[1:] + [den]):
        labels = tuple(row.get(lo, y) for row, y in zip(starts, labels))
        mass[labels] = mass.get(labels, 0) + hi - lo
    return end, tuple(mass.items())


def maximal_coupling_pair(p: Pmf, q: Pmf) -> Coupling:
    """A maximal coupling of two PMFs: the interval coupling, whose
    diagonal carries min{p, q} and whose union mass is 1 + TV(p, q) =
    tau_max(p, q)."""
    return _interval_coupling((p, q))


def three_way_coupling(p1: Pmf, p2: Pmf, p3: Pmf) -> Coupling:
    """A minimal three-way coupling with a pinned diagonal: the interval
    coupling, which has the full intersection property; it exists iff
    tau_max2 <= 1."""
    return _interval_coupling((p1, p2, p3))


def _interval_coupling(pmfs: Sequence[Pmf]) -> Coupling:
    channel = DiscreteChannel(pmfs)
    return Mixture(channel, (), _interval_parts(channel.den, channel.columns, channel.n)[1]).coupling()


@dataclass(frozen=True)
class N4Ingredients:
    """Every scalar and per-symbol quantity the four-PMF mixture needs,
    from one pass over the columns, each ranked once.

    Every quantity is an integer numerator over ``channel.den``, the
    denominator of the law of the four marginals it was read from.
    ``tau_by_subset`` maps each row subset of size >= 2 to tau_I, the sum
    of the entries of its lowest-ranked row. ``r_num[i]`` is the
    unnormalized residual of row i (top entry minus second, where row i is
    the strict column maximum) and ``r_norm[i]`` its total, computed by
    the symmetric inclusion-exclusion pattern, which must equal sum
    r_num[i]:

        N_Ri = 1 - sum_{j != i} tau_ij + sum_{j<k != i} tau_ijk - tau.

    ``t[{i,j}]`` is the pair residual, from the ranked minima, never < 0,
        T_ij(y) = min(P_i,P_j) - min(P_i,P_j,P_k) - min(P_i,P_j,P_l) + P_min
    (equivalently max{0, min(P_i,P_j) - max(P_k,P_l)}), with total N_ij.
    A column whose four terms cancel pairwise is skipped. ``s_trio[I]``
    is S_I = min_{i in I} P_i - P_min on each triple I, its nonzero
    entries, with total tau_I - tau. Each map runs in alphabet order over
    the union of the rows' supports, the only columns that add to a sum.
    """

    channel: DiscreteChannel
    tau: int
    tau_max: int
    tau_max2: int
    tau_by_subset: Mapping[frozenset, int]
    p_min: Mapping[Symbol, int]
    r_num: tuple[Mapping[Symbol, int], ...]
    r_norm: tuple[int, int, int, int]
    t: Mapping[Pair, Mapping[Symbol, int]]
    n: Mapping[Pair, int]
    s_trio: Mapping[frozenset, Mapping[Symbol, int]]

    def _slack(self) -> int:
        cap = sum(min(self.n[p], self.n[complement_pair(p)]) for p in ANCHOR_PAIRS)
        return cap - (self.tau_max2 - self.channel.den)

    def condition_slack(self) -> Fraction:
        """min{N01,N23} + min{N02,N13} + min{N03,N12} - (tau_max2 - 1), >= 0
        iff the mixture exists; ``_slack`` is its numerator over ``den``."""
        return Fraction(self._slack(), self.channel.den)


def n4_ingredients(pmfs: Sequence[Pmf] | DiscreteChannel) -> N4Ingredients:
    channel = pmfs if isinstance(pmfs, DiscreteChannel) else DiscreteChannel(pmfs)
    if channel.n != 4:
        raise LeakboundError("the four-way construction needs exactly 4 PMFs")
    den, columns = channel.den, channel.columns

    sums = [0] * len(SUBSETS)
    top = second = 0
    p_min: dict[Symbol, int] = {}
    r_num: tuple[dict[Symbol, int], ...] = ({}, {}, {}, {})
    t: dict[Pair, dict[Symbol, int]] = {pair: {} for pair in ALL_PAIRS}
    s_trio: dict[frozenset, dict[Symbol, int]] = {trio: {} for trio in SUBSETS[TRIPLES]}
    for y in channel.output_alphabet:
        col = columns.get(y)
        if col is None:
            continue  # a column outside every support adds 0 to each sum
        order = tuple(sorted(range(4), key=col.__getitem__))
        s = [col[i] for i in order]
        low = RANKED[order]
        for k, rank in enumerate(low):
            sums[k] += s[rank]
        p_min[y] = s[0]
        top += s[3]
        second += s[2]
        if s[3] > s[2]:
            r_num[order[3]][y] = s[3] - s[2]
        for trio, rank in zip(s_trio, low[TRIPLES]):
            if s[rank] > s[0]:
                s_trio[trio][y] = s[rank] - s[0]
        for pair, a, (k, l) in zip(ALL_PAIRS, low, PAIR_TRIPLES):
            b, c = low[k], low[l]
            if (b, c) in ((a, 0), (0, a)):
                continue  # the four terms of T cancel pairwise
            val = s[a] - s[b] - s[c] + s[0]
            if val < 0:
                i, j = sorted(pair)
                raise ConstructionError(f"pair residual T_{i}{j}({y!r}) = {Fraction(val, den)} < 0")
            if val:
                t[pair][y] = val
    tau_by_subset = dict(zip(SUBSETS, sums))
    tau = tau_by_subset[frozenset(range(4))]

    # N_Ri = 1 - sum over the subsets I holding i of (-1)^|I| tau_I.
    r_norm = tuple(
        den - sum((-1) ** len(I) * tau_by_subset[I] for I in SUBSETS if i in I)
        for i in range(4)
    )
    for i, norm in enumerate(r_norm):
        total = sum(r_num[i].values())
        if total != norm:
            raise ConstructionError(
                f"residual normalizer mismatch for row {i}: "
                f"sum of numerators {Fraction(total, den)} != {Fraction(norm, den)}"
            )

    return N4Ingredients(
        channel=channel, tau=tau, tau_max=top, tau_max2=second,
        tau_by_subset=tau_by_subset, p_min=p_min, r_num=r_num, r_norm=r_norm, t=t,
        n={pair: sum(t[pair].values()) for pair in ALL_PAIRS}, s_trio=s_trio,
    )


def n4_condition(pmfs: Sequence[Pmf] | DiscreteChannel) -> tuple[bool, N4Ingredients]:
    """Evaluate the existence condition for the four-way mixture, exactly."""
    ing = n4_ingredients(pmfs)
    return ing._slack() >= 0, ing


@dataclass(frozen=True)
class MixtureWeights:
    """Weights of the four-way mixture, integer numerators over ``den``.

    ``alpha`` is keyed by the three anchored pairs {0,1}, {0,2}, {0,3};
    ``beta`` by all six pairs; ``independent`` is the weight of the
    all-residuals-independent component (positive only when tau_max2 < 1).
    """

    den: int
    alpha: Mapping[Pair, int]
    beta: Mapping[Pair, int]
    independent: int


def n4_mixture_weights(ing: N4Ingredients) -> MixtureWeights:
    """The mixture weights, alpha split greedily in the fixed order
    (01/23), (02/13), (03/12): each alpha_p = min(left, N_p, N_comp(p))
    out of the budget left = max(tau_max2 - 1, 0).

    A negative slack raises ``PreconditionError``; otherwise the existence
    condition guarantees the caps absorb the whole budget.
    """
    den = ing.channel.den
    if ing._slack() < 0:
        raise PreconditionError(FOUR_WAY_CONDITION, ing.condition_slack())
    left = max(ing.tau_max2 - den, 0)
    alpha = {}
    for p in ANCHOR_PAIRS:
        alpha[p] = min(left, ing.n[p], ing.n[complement_pair(p)])
        left -= alpha[p]
    if left:
        raise ConstructionError(f"pair capacities leave {Fraction(left, den)} of the budget unspent")
    beta = {}
    for anchored in ANCHOR_PAIRS:
        other = complement_pair(anchored)
        beta[anchored] = ing.n[anchored] - alpha[anchored]
        beta[other] = ing.n[other] - alpha[anchored]
    for pair, value in beta.items():
        if value < 0:
            raise ConstructionError(f"negative beta weight {Fraction(value, den)} for pair {set(pair)}")
    return MixtureWeights(den, alpha, beta, independent=max(den - ing.tau_max2, 0))


def build_n4_coupling(pmfs: Sequence[Pmf]) -> Coupling:
    """Assemble the four-way mixture coupling and verify it exactly.

    Raises ``PreconditionError`` when the existence condition fails and
    ``ConstructionError`` on any internal inconsistency (negative mass,
    weights not summing to 1). The returned coupling attains union mass
    tau_max and has, for every subset I with |I| >= 2 and every symbol y,
    intersection probability P(all-of-I equal y) = min_{i in I} P_i(y).
    """
    return n4_mixture(n4_ingredients(pmfs)).coupling()


def n4_mixture(ing: N4Ingredients) -> Mixture:
    """The parts of ``build_n4_coupling``, from its ingredients.

    With r_i = r_num[i] / R_i the residual of row i, T_p = t[p] / N_p
    that of pair p, and S_I = min_{i in I} P_i - P_min on a triple I
    (total tau_I - tau), the components are, as weight: group factors

        tau:            0123 P_min / tau
        tau_I - tau:    I S_I / (tau_I - tau), the fourth coordinate r_i
        beta[p]:        p T_p, the other two coordinates r_i and r_j
        alpha[p]:       p T_p, complement T_comp(p)    (p anchored at 0)
        independent:    r_0, r_1, r_2, r_3
    """
    weights = n4_mixture_weights(ing)
    total = (ing.tau + sum(ing.tau_by_subset[s] - ing.tau for s in SUBSETS[TRIPLES])
             + sum(weights.beta.values()) + sum(weights.alpha.values()) + weights.independent)
    if total != ing.channel.den:
        raise ConstructionError(f"mixture weights sum to {Fraction(total, ing.channel.den)}, expected 1")

    def free(i):
        return ((i,), ing.r_num[i], ing.r_norm[i])

    def tied(pair):
        return (pair, ing.t[pair], ing.n[pair])

    components = [(ing.tau, [((0, 1, 2, 3), ing.p_min, ing.tau)])]
    for i in range(4):
        trio = frozenset(j for j in range(4) if j != i)
        w = ing.tau_by_subset[trio] - ing.tau
        components.append((w, [(tuple(sorted(trio)), ing.s_trio[trio], w), free(i)]))
    for pair in ALL_PAIRS:
        i, j = sorted(complement_pair(pair))
        components.append((weights.beta[pair], [tied(pair), free(i), free(j)]))
    for pair in ANCHOR_PAIRS:
        components.append((weights.alpha[pair], [tied(pair), tied(complement_pair(pair))]))
    components.append((weights.independent, [free(i) for i in range(4)]))
    return Mixture(ing.channel, _mixture(components, ing.channel.den))


def intersection_violations(coupling: Coupling, pmfs: Sequence[Pmf]) -> list[tuple]:
    """All (subset, symbol, got, want) where the coupling's probability of
    the selected coordinates all equalling the symbol differs from the
    minimum of the selected marginals, subsets by size, then symbols in
    alphabet order. Refuses PMFs on an alphabet other than the coupling's,
    whose extra symbols would go unchecked. Reads the laws' numerators on
    their supports, each PMF's lifted to the LCM of theirs: a tuple adds its
    mass once per (symbol, mask of the coordinates holding it), a subset
    ties at y the masks that contain it, and a symbol outside a selected
    support and untied is 0 against 0, so it is not compared."""
    pmfs, m = tuple(pmfs), coupling.arity
    if len(pmfs) != m:
        raise LeakboundError("need one PMF per coupling coordinate")
    if any(pmf.alphabet != coupling.alphabet for pmf in pmfs):
        raise LeakboundError("PMF on a different alphabet from the coupling's")
    scale, nums = numerators(coupling.mass)
    den = lcm(*(pmf.mass.den for pmf in pmfs))
    tied: dict[tuple, int] = {}
    for tup, num in nums.items():
        masks: dict[Symbol, int] = {}
        for i, y in enumerate(tup):
            masks[y] = masks.get(y, 0) | 1 << i
        for y, held in masks.items():
            if held & (held - 1):  # two or more coordinates
                tied[y, held] = tied.get((y, held), 0) + num
    # A subset's minima, on the common support, come from its prefix's.
    minima = {(i,): {y: q * (den // pmf.mass.den) for y, q in pmf.mass.nums.items()}
              for i, pmf in enumerate(pmfs)}
    out = []
    for size in range(2, m + 1):
        for subset in combinations(range(m), size):
            last, mask, got = minima[subset[-1:]], sum(1 << i for i in subset), {}
            minima[subset] = want = {y: min(q, last[y]) for y, q in minima[subset[:-1]].items() if y in last}
            for (y, held), num in tied.items():
                if held & mask == mask:
                    got[y] = got.get(y, 0) + num
            bad = [y for y in want.keys() | got.keys() if got.get(y, 0) * den != want.get(y, 0) * scale]
            out += [(subset, y, Fraction(got.get(y, 0), scale), Fraction(want.get(y, 0), den))
                    for y in sorted(bad, key=coupling.alphabet.index)]
    return out


def verify_intersection_property(coupling: Coupling, pmfs: Sequence[Pmf]) -> bool:
    """True iff P(intersection of {Y_i = y}, i in I) = min_{i in I} P_i(y)
    for every subset I with |I| >= 2 and every symbol y; refuses as
    ``intersection_violations`` does."""
    return not intersection_violations(coupling, pmfs)


def independent_coupling(pmfs: Sequence[Pmf]) -> Coupling:
    """Product coupling; a baseline that generally has no special structure."""
    channel = DiscreteChannel(pmfs)
    den = channel.den
    groups = [((i,), {y: col[i] for y, col in channel.columns.items()}, den) for i in range(channel.n)]
    return Mixture(channel, _mixture([(den, groups)], den)).coupling()
