"""Couplings of joint PMFs whose second coordinates attain minimal union.

Given m joint PMFs P_{X_i,Y_i} on a shared product space, the build here
produces one joint law over (X_1, Y_1, ..., X_m, Y_m) that preserves every
source joint exactly while the Y-coordinates attain the minimal union mass
tau_max(P_{Y_1}, ..., P_{Y_m}). It is a three-part mixture:

    c_XY  * G1   fully tied diagonal carrying min_i P_{X_i,Y_i}(x, y)
  + (c_Y - c_XY) * G2   Y's tied, X's drawn from independent residuals
  + (1 - c_Y)  * G3   independent residuals against H, the off-floor part
                      of a minimal Y-coupling whose diagonal carries
                      exactly min_i P_{Y_i}(y)

where c_XY = sum min_i P_{X_i,Y_i} and c_Y = sum min_i P_{Y_i}. The
mixture weights cancel against the component normalizers, so the assembly
below never divides by c_XY, c_Y - c_XY, or 1 - c_Y, and degenerate
components simply contribute nothing.

G2 and G3 are mixture parts (``couplings.Mixture``) of Y-tuple weights:
G3 is H's parts of two or more groups, which reach untied tuples only,
and G2 one part, a group of every coordinate giving (y, ..., y) the
weight P_Ymin(y) - sum_x P_min(x, y). A tuple t of weight w is spread
over X-tuples as w * prod_i r_i(x_i | t_i), r_i(. | y) the residual of
source i above the cellwise floor, given y:

    r_i(x | y) = (P_i(x, y) - P_min(x, y)) / (P_i(y) - sum_x P_min(x, y)),

the normalizer read off the marginal. No two parts share a Y-tuple (H's
closed-form parts each tie their own partition of the coordinates, its
LP parts are distinct tuples), and none meets G1, which would need
every source above the floor at a cell some source attains. So the
support size is known before anything is listed: the nonzero cells of
P_min plus, per part, prod_g sum_{y in g} prod_{i in g} |r_i(. | y)|.

``minimal_y_coupling`` gives H as a ``couplings.Mixture``: a closed form
at m = 2, 3, 4, else the diagonal-floored LP, whose witness becomes one
part per tuple. Every route pins the diagonal to min_i P_{Y_i}(y), which
keeps H nonnegative and off the tied tuples. ``_check_mixture`` checks
the parts in closed form: disjoint group supports, the Y-marginals,
union mass tau_max and the diagonal. Then every source is preserved:
the weights of the tuples with t_i = y add up to the residual total of
source i at y, P_i(y) - sum_x P_min(x, y). A caller that has decided
``coupling_feasibility`` passes the verdict, which is not decided again.

The bounds' penalty f = sum_y P(X_1 = ... = X_m, some Y_i = y) is read
off the same parts, never their tuples. G1 adds c_XY, and a part of g
groups puts mass only on Y-tuples of g distinct symbols, so it adds
g * sum_x prod_g sum_y q_g(y) prod_{i in g} r_i(x | y).
``coupling_penalty`` computes that; ``build_simultaneous_coupling``
counts the support off the parts, and only under its limit lists and
validates the coupling, for ``couple --mode simul`` and as the
reference the penalty is tested against.

One source is its own coupling: its one Y-marginal passes the condition
with no value, the G2 weights are 0 and f = c_XY = 1. The penalty
accepts it; ``build_simultaneous_coupling``, like the coupling LP,
refuses fewer than two sources.

Which type validates what: each source is a ``measures.JointPmf``, a
``Pmf`` over its (x, y) cells; the ``DiscreteChannel`` of the sources
checks that they share one X and one Y alphabet; ``SimulCoupling``
checks the assembled law: total mass, every source marginal and the
Y-projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .couplings import (
    FOUR_WAY_CONDITION,
    TAU_MAX2_CONDITION,
    Coupling,
    Mixture,
    N4Ingredients,
    _list_part,
    n4_condition,
    n4_mixture,
    pair_mixture,
    three_way_mixture,
)
from .errors import (
    DEFAULT_MAX_STATES,
    CapacityError,
    ConstructionError,
    LeakboundError,
    PreconditionError,
    exact_str,
)
from .lp import min_union_coupling_diag
from .measures import (
    ZERO,
    DiscreteChannel,
    JointPmf,
    Pmf,
    Symbol,
    push_forward,
    tau_max,
    tau_max2,
)


class Feasibility(NamedTuple):
    """Whether a minimal coupling of some marginals is available.

    ``ok``, the condition's label and its exact value; at m = 4 also the
    four-way ingredients the verdict was read from, so a build that
    follows it need not compute them again.
    """

    ok: bool
    label: str
    value: Fraction | None
    ingredients: N4Ingredients | None = None


def coupling_feasibility(y_pmfs: Sequence[Pmf]) -> Feasibility:
    """Decide the existence condition of a minimal coupling, exactly.

    For m != 4 the condition is tau_max2 <= 1; for m = 4 the relaxed
    pair-normalizer condition is used, which subsumes tau_max2 <= 1.
    One marginal is its own coupling: it passes with value None, as
    tau_max2 of one row is undefined.
    """
    if len(y_pmfs) == 4:
        ok, ing = n4_condition(y_pmfs)
        return Feasibility(ok, FOUR_WAY_CONDITION, ing.condition_slack(), ing)
    channel = DiscreteChannel(y_pmfs)
    if channel.n == 1:
        return Feasibility(True, TAU_MAX2_CONDITION, None)
    value = tau_max2(channel)
    # For m = 2 the second maximum is the minimum, so this always passes.
    return Feasibility(value <= 1, TAU_MAX2_CONDITION, value)


def _tuple_part(tup: tuple, q: Fraction) -> tuple:
    """One tuple of mass q as a mixture part: a group per distinct symbol."""
    return tuple(
        (tuple(i for i, s in enumerate(tup) if s == y), ((y, q if k == 0 else Fraction(1)),))
        for k, y in enumerate(dict.fromkeys(tup))
    )


def _check_mixture(mixture: Mixture) -> None:
    """Check a minimal pinned Y-coupling in closed form, off its parts.

    Raises ``ConstructionError`` unless the groups of every part have
    pairwise disjoint supports, every coordinate has its marginal, the
    union mass sum_parts g * prod_g |q_g| is tau_max, and the diagonal,
    which only one-group parts reach, is min_i P_i(y) at every y.
    """
    marginals = mixture.marginals
    got = [{} for _ in marginals]
    diagonal, union = {}, ZERO
    for part in mixture.parts:
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


def minimal_y_coupling(
    y_pmfs: Sequence[Pmf],
    max_variables: int = DEFAULT_MAX_STATES,
    verdict: Feasibility | None = None,
) -> Mixture:
    """A coupling attaining union mass tau_max with a pinned diagonal.

    Dispatch: the closed forms for 2 <= m <= 4, the diagonal-floored LP
    beyond that; the LP witness, and at m = 1 the one marginal, become
    one part per tuple. Raises ``PreconditionError`` when no
    route applies. The closed forms at m <= 3 decide their own existence
    condition; at m >= 4 it is checked first, unless ``verdict``, the
    ``coupling_feasibility`` of these marginals, is passed, and the
    four-way route builds from the verdict's ingredients, which must be
    those of ``y_pmfs``. The result is checked by ``_check_mixture``.
    """
    y_pmfs = tuple(y_pmfs)
    m = len(y_pmfs)
    if m >= 4 and verdict is None:
        verdict = coupling_feasibility(y_pmfs)
    ingredients = verdict and verdict.ingredients
    if ingredients is not None and ingredients.pmfs != y_pmfs:
        raise LeakboundError("the verdict was decided on other marginals")
    if verdict is not None and not verdict.ok:
        raise PreconditionError(verdict.label, verdict.value)
    if m == 2:
        mixture = pair_mixture(*y_pmfs)
    elif m == 3:
        mixture = three_way_mixture(*y_pmfs)
    elif m == 4:
        mixture = n4_mixture(verdict.ingredients)
    else:
        mass = (
            {(y,): q for y, q in y_pmfs[0].mass.items()} if m == 1
            else min_union_coupling_diag(y_pmfs, max_variables=max_variables).witness.mass
        )
        mixture = Mixture(y_pmfs, tuple(_tuple_part(t, q) for t, q in mass.items()))
    _check_mixture(mixture)
    return mixture


@dataclass(frozen=True)
class _MixtureTable:
    """What the mixture is assembled from (see the module docstring):
    the checked Y-coupling H, ``parts`` the G2/G3 Y-weights as mixture
    parts, and ``residual[i][y]`` mapping x to r_i(x | y)."""

    y_mixture: Mixture
    parts: Sequence[tuple]
    p_min: Mapping[tuple, Fraction]
    c_y: Fraction
    residual: tuple[Mapping[Symbol, Mapping[Symbol, Fraction]], ...]


def _mixture_table(
    sources: tuple[JointPmf, ...],
    max_variables: int,
    verdict: Feasibility | None = None,
) -> _MixtureTable:
    channel = DiscreteChannel(sources)  # one (x, y) cell alphabet
    y_alphabet = sources[0].y_alphabet

    y_marginals = [s.y_marginal() for s in sources]
    y_mixture = minimal_y_coupling(y_marginals, max_variables, verdict)

    # Only a cell in the first source's support has a nonzero minimum.
    p_min = {cell: min(channel.column(cell)) for cell in sources[0].mass}
    p_ymin = {y: min(p[y] for p in y_marginals) for y in y_alphabet}
    floor = push_forward(p_min, itemgetter(1))  # sum_x P_min(x, y)

    residual = []
    for s, p in zip(sources, y_marginals):
        rest = {y: q - floor.get(y, ZERO) for y, q in p.mass.items()}
        lists = {y: {} for y in y_alphabet}
        for (x, y), q in s.mass.items():
            if d := q - p_min.get((x, y), ZERO):
                lists[y][x] = d / rest[y]
        residual.append(lists)

    tied = tuple((y, w) for y in y_alphabet if (w := p_ymin[y] - floor.get(y, ZERO)))
    parts = [part for part in y_mixture.parts if len(part) > 1]
    parts.append(((tuple(range(len(sources))), tied),))
    return _MixtureTable(y_mixture, parts, p_min, sum(p_ymin.values(), ZERO), tuple(residual))


@dataclass(frozen=True)
class SimulCoupling:
    """The assembled joint coupling plus the quantities it was built from."""

    sources: tuple[JointPmf, ...]
    mass: Mapping[tuple, Fraction]  # keys: (x_tuple, y_tuple)
    c_xy: Fraction
    c_y: Fraction
    y_coupling: Coupling

    @property
    def arity(self) -> int:
        return len(self.sources)

    def source_marginal(self, i: int) -> dict[tuple, Fraction]:
        """Projection onto (X_i, Y_i) as a cell -> mass dict."""
        return push_forward(self.mass, lambda cell: (cell[0][i], cell[1][i]))

    def y_projection(self) -> dict[tuple, Fraction]:
        return push_forward(self.mass, itemgetter(1))

    def validate(self) -> None:
        """Exact checks of every mass's sign and every structural
        identity, off one pass over the support; raises on failure."""
        marginals = [{} for _ in self.sources]
        proj = {}
        for (xs, ys), q in self.mass.items():
            if q < 0:
                raise ConstructionError(f"negative mass {exact_str(q)} at {(xs, ys)!r}")
            proj[ys] = proj.get(ys, ZERO) + q
            for got, cell in zip(marginals, zip(xs, ys)):
                got[cell] = got.get(cell, ZERO) + q
        total = sum(proj.values(), ZERO)
        if total != 1:
            raise ConstructionError(f"coupling mass sums to {total}")
        for i, (src, got) in enumerate(zip(self.sources, marginals)):
            for cell in src.alphabet:
                if got.get(cell, ZERO) != src[cell]:
                    raise ConstructionError(f"source {i} marginal mismatch at {cell!r}")
        if proj != dict(self.y_coupling.mass):
            raise ConstructionError("Y-projection differs from ingredient coupling")


def build_simultaneous_coupling(
    sources: Sequence[JointPmf],
    max_states: int = DEFAULT_MAX_STATES,
) -> SimulCoupling:
    """Assemble the three-part mixture described in the module docstring.

    ``max_states`` caps both the assembled support, counted off the G2/G3
    parts before any tuple is listed, and the variable count of the
    fallback LP that builds the ingredient Y-coupling. Like the coupling
    LP, it refuses fewer than two sources.
    """
    sources = tuple(sources)
    if len(sources) < 2:
        raise LeakboundError("need at least two joint PMFs")
    table = _mixture_table(sources, max_states)
    m = len(sources)
    residual = table.residual

    # The exact support size, before materializing anything.
    est = sum(1 for q in table.p_min.values() if q) + sum(
        prod(sum(prod(len(residual[i][y]) for i in c) for y, _ in e) for c, e in part)
        for part in table.parts
    )
    if est > max_states:
        raise CapacityError(est, max_states, "coupling support tuples")

    # G1: fully tied diagonal. Weight c_XY cancels the 1/c_XY normalizer.
    mass = {((x,) * m, (y,) * m): q for (x, y), q in table.p_min.items() if q}
    # G2 and G3: every X-tuple drawn from the independent residuals.
    for part in table.parts:
        for ys, w in _list_part(part, m):
            for combo in product(*(residual[i][y].items() for i, y in enumerate(ys))):
                q = w
                for _, weight in combo:
                    q *= weight
                mass[(tuple(x for x, _ in combo), ys)] = q

    built = SimulCoupling(
        sources=sources,
        mass=mass,
        c_xy=sum(table.p_min.values(), ZERO),
        c_y=table.c_y,
        y_coupling=table.y_mixture.coupling(),
    )
    built.validate()
    return built


def coupling_penalty(
    sources: Sequence[JointPmf],
    max_variables: int = DEFAULT_MAX_STATES,
    verdict: Feasibility | None = None,
) -> Fraction:
    """``f_quantity(build_simultaneous_coupling(sources))``, unbuilt.

    Reads f = c_XY + sum_parts g * sum_x prod_g sum_y q_g(y) prod_{i in
    g} r_i(x | y) off the G2/G3 parts of ``_mixture_table``. No tuple is
    listed, so no support-size limit applies. ``max_variables``
    caps the LP of the m >= 5 route and ``verdict`` is passed on to
    ``minimal_y_coupling``.
    """
    sources = tuple(sources)
    table = _mixture_table(sources, max_variables, verdict)
    f = sum(table.p_min.values(), ZERO)
    for part in table.parts:
        for x in sources[0].x_alphabet:
            term = len(part)
            for coords, entries in part:
                term *= sum((
                    q * prod(table.residual[i][y].get(x, ZERO) for i in coords)
                    for y, q in entries
                ), ZERO)
            f += term
    return f


def y_union_mass(coupling: SimulCoupling) -> Fraction:
    """sum_y P(union_i {Y_i = y}) under the coupling."""
    return sum(
        (q * len(set(ys)) for (xs, ys), q in coupling.mass.items()), ZERO
    )


def f_quantity(coupling: SimulCoupling) -> Fraction:
    """sum_y P(X_1 = ... = X_m and union_i {Y_i = y}).

    With the X-coordinates playing the role of a peeled node's parents,
    this is the "loss in leakage" correction of the coupling-based bound.
    """
    return sum(
        (
            q * len(set(ys))
            for (xs, ys), q in coupling.mass.items()
            if all(x == xs[0] for x in xs)
        ),
        ZERO,
    )
