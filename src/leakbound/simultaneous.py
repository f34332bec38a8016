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

G2 and G3 differ only in the weight they give a Y-tuple t, so they are
built as one table of weights: the tied tuple (y, ..., y) gets
P_Ymin(y) - sum_x P_min(x, y) (G2), every untied tuple of H gets its mass
(G3), and zero weights are dropped. Each entry t of weight w is spread
over X-tuples as w * prod_i r_i(x_i | t_i), with r_i(. | y) the residual
of source i above the cellwise floor, conditioned on y. The two parts
never share a tuple because the pinned diagonal leaves H no mass on tied
tuples, and neither meets G1: a tied X-tuple under a tied Y-tuple would
need every source above the floor at one cell, yet some source attains
it. So the support size is known before anything is built: the nonzero
cells of P_min plus, per table entry, the product of the residual list
lengths, read from the same lists that the assembly walks.

The same table gives the bounds' penalty f = sum_y P(X_1 = ... = X_m,
some Y_i = y) without the product supports: G1 adds c_XY, and entry t
adds w(t) |set(t)| T(t) with T(t) = sum_x prod_i r_i(x | t_i), the mass
its residuals put on tied X-tuples. ``coupling_penalty`` computes that
and checks the table in closed form: source i is preserved iff the
weights of the tuples with t_i = y add up to the residual total
P_i(y) - sum_x P_min(x, y), at every y. ``build_simultaneous_coupling``
assembles and validates the coupling itself, for ``couple --mode simul``
and as the reference the penalty is tested against.

The ingredient Y-coupling comes from the closed forms in ``couplings``
where available (m = 2 pair coupling; m = 3 ``three_way_coupling``;
m = 4 four-way mixture), all assembled there by one mixture assembler
that owns the no-0/0 rule, and otherwise from the diagonal-floored LP.
All routes pin the diagonal to min_i P_{Y_i}(y), which is what keeps H
nonnegative. The closed forms decide their own existence condition, and
every route is checked to attain union mass tau_max with that diagonal.
A caller that has already decided ``coupling_feasibility`` passes the
verdict, so the LP route does not check the condition again and the
four-way route builds from the verdict's ingredients.

One source is its own coupling: its one Y-marginal passes the condition
with no value, the weight table is empty and f = 1. The penalty accepts
it; ``build_simultaneous_coupling``, like the coupling LP, refuses fewer
than two sources.

Which type validates what: each source is a ``measures.JointPmf``,
validated as a ``Pmf`` over its (x, y) cells when it is built. The table
builds a ``DiscreteChannel`` of the sources, the one check that they
share their cells, hence one X and one Y alphabet. The ingredient
Y-coupling is a ``couplings.Coupling``, checked against the Y-marginals.
``SimulCoupling.validate`` checks the assembled law: total mass, every
source marginal and the Y-projection; ``coupling_penalty`` checks the
table in closed form instead.
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
    N4Ingredients,
    assemble_n4_coupling,
    build_n4_coupling,
    diagonal_mass,
    independent_coupling,
    maximal_coupling_pair,
    n4_condition,
    three_way_coupling,
    union_mass,
)
from .errors import (
    DEFAULT_MAX_STATES,
    CapacityError,
    ConstructionError,
    LeakboundError,
    PreconditionError,
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


def minimal_y_coupling(
    y_pmfs: Sequence[Pmf],
    max_variables: int = DEFAULT_MAX_STATES,
    verdict: Feasibility | None = None,
) -> Coupling:
    """A coupling attaining union mass tau_max with a pinned diagonal.

    Dispatch: one marginal is its own coupling, closed forms for
    2 <= m <= 4, diagonal-floored LP beyond that. Raises ``PreconditionError`` when no route applies. The closed forms
    decide their own existence condition; only the LP route checks it
    first, unless ``verdict``, the ``coupling_feasibility`` of these
    marginals, is passed. At m = 4 the route builds from the verdict's
    ingredients.
    """
    y_pmfs = tuple(y_pmfs)
    m = len(y_pmfs)
    if m >= 5 and verdict is None:
        verdict = coupling_feasibility(y_pmfs)
    if verdict is not None and not verdict.ok:
        raise PreconditionError(verdict.label, verdict.value)
    if m == 1:
        coupling = independent_coupling(y_pmfs)
    elif m == 2:
        coupling = maximal_coupling_pair(*y_pmfs)
    elif m == 3:
        coupling = three_way_coupling(*y_pmfs)
    elif m == 4 and verdict is not None:
        coupling = assemble_n4_coupling(verdict.ingredients)
    elif m == 4:
        coupling = build_n4_coupling(y_pmfs)
    else:
        result = min_union_coupling_diag(y_pmfs, max_variables=max_variables)
        coupling = result.witness
    target = tau_max(DiscreteChannel(y_pmfs))
    if union_mass(coupling) != target:
        raise ConstructionError(
            f"ingredient coupling union mass {union_mass(coupling)} != "
            f"tau_max {target}"
        )
    for y in y_pmfs[0].alphabet:
        floor = min(p[y] for p in y_pmfs)
        if diagonal_mass(coupling, y) != floor:
            raise ConstructionError(
                f"ingredient diagonal at {y!r} is {diagonal_mass(coupling, y)}, "
                f"needs exactly {floor}"
            )
    return coupling


@dataclass(frozen=True)
class _MixtureTable:
    """What the mixture is assembled from (see the module docstring).

    ``residual[i][y]`` maps x to r_i(x | y), source i above the cellwise
    floor conditioned on y, in alphabet order; ``totals[i][y]`` is the
    unconditioned total P_i(y) - sum_x P_min(x, y). ``weights`` holds
    the nonzero Y-tuple weights of G2 and G3.
    """

    y_coupling: Coupling
    p_min: Mapping[tuple, Fraction]
    c_y: Fraction
    residual: tuple[Mapping[Symbol, Mapping[Symbol, Fraction]], ...]
    totals: tuple[Mapping[Symbol, Fraction], ...]
    weights: Mapping[tuple, Fraction]


def _mixture_table(
    sources: tuple[JointPmf, ...],
    max_variables: int,
    verdict: Feasibility | None = None,
) -> _MixtureTable:
    m = len(sources)
    channel = DiscreteChannel(sources)  # one (x, y) cell alphabet
    x_alphabet = sources[0].x_alphabet
    y_alphabet = sources[0].y_alphabet

    y_marginals = [s.y_marginal() for s in sources]
    y_coupling = minimal_y_coupling(y_marginals, max_variables, verdict)

    p_min = {cell: min(channel.column(cell)) for cell in channel.output_alphabet}
    p_ymin = {y: min(p[y] for p in y_marginals) for y in y_alphabet}

    residual, totals = [], []
    for s in sources:
        lists, sums = {}, {}
        for y in y_alphabet:
            cells = [(x, d) for x in x_alphabet if (d := s[(x, y)] - p_min[(x, y)])]
            den = sum((d for _, d in cells), ZERO)
            lists[y] = {x: d / den for x, d in cells}
            sums[y] = den
        residual.append(lists)
        totals.append(sums)

    # Y-tuple weights of G2 (tied tuples) and G3 (untied tuples of H).
    weights = {
        (y,) * m: p_ymin[y] - sum(p_min[(x, y)] for x in x_alphabet)
        for y in y_alphabet
    }
    weights.update(
        (ys, q) for ys, q in y_coupling.mass.items() if len(set(ys)) > 1
    )
    weights = {ys: w for ys, w in weights.items() if w}
    for ys, w in weights.items():
        if w < 0:
            raise ConstructionError(f"negative weight {w} at Y-tuple {ys!r}")
    return _MixtureTable(
        y_coupling=y_coupling,
        p_min=p_min,
        c_y=sum(p_ymin.values(), ZERO),
        residual=tuple(residual),
        totals=tuple(totals),
        weights=weights,
    )


def _check_table_marginals(table: _MixtureTable) -> None:
    """The closed form of ``SimulCoupling.validate`` on an unbuilt table.

    The assembled coupling preserves source i iff, at every y, the
    weights of the tuples t with t_i = y add up to the residual total of
    source i at y; then every weighted tuple also meets nonempty residual
    lists, and the total mass is c_XY + sum of the weights = 1.
    """
    for i, totals in enumerate(table.totals):
        got = push_forward(table.weights, itemgetter(i))
        for y, want in totals.items():
            if got.get(y, ZERO) != want:
                raise ConstructionError(
                    f"table marginal {i} at {y!r} is {got.get(y, ZERO)}, "
                    f"residual total {want}"
                )


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
        """Exact checks of every structural identity; raises on failure."""
        total = sum(self.mass.values(), ZERO)
        if total != 1:
            raise ConstructionError(f"coupling mass sums to {total}")
        for i, src in enumerate(self.sources):
            got = self.source_marginal(i)
            for cell in src.alphabet:
                if got.get(cell, ZERO) != src[cell]:
                    raise ConstructionError(f"source {i} marginal mismatch at {cell!r}")
        proj = self.y_projection()
        if proj != dict(self.y_coupling.mass):
            raise ConstructionError("Y-projection differs from ingredient coupling")


def build_simultaneous_coupling(
    sources: Sequence[JointPmf],
    max_states: int = DEFAULT_MAX_STATES,
) -> SimulCoupling:
    """Assemble the three-part mixture described in the module docstring.

    ``max_states`` caps both the assembled support and the variable count
    of the fallback LP that builds the ingredient Y-coupling. Like the
    coupling LP, it refuses fewer than two sources.
    """
    sources = tuple(sources)
    if len(sources) < 2:
        raise LeakboundError("need at least two joint PMFs")
    table = _mixture_table(sources, max_states)
    m = len(sources)
    residual = table.residual

    # The exact support size, before materializing anything.
    est = sum(1 for q in table.p_min.values() if q) + sum(
        prod(len(residual[i][y]) for i, y in enumerate(ys)) for ys in table.weights
    )
    if est > max_states:
        raise CapacityError(est, max_states, "coupling support tuples")

    # G1: fully tied diagonal. Weight c_XY cancels the 1/c_XY normalizer.
    mass = {((x,) * m, (y,) * m): q for (x, y), q in table.p_min.items() if q}
    # G2 and G3: every X-tuple drawn from the independent residuals.
    for ys, w in table.weights.items():
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
        y_coupling=table.y_coupling,
    )
    built.validate()
    return built


def coupling_penalty(
    sources: Sequence[JointPmf],
    max_variables: int = DEFAULT_MAX_STATES,
    verdict: Feasibility | None = None,
) -> Fraction:
    """``f_quantity(build_simultaneous_coupling(sources))``, unbuilt.

    Reads f = c_XY + sum_t w(t) |set(t)| T(t) off the mixture table, with
    T(t) = sum_x prod_i r_i(x | t_i) the mass the residuals of the entry
    t put on tied X-tuples. The table is checked by
    ``_check_table_marginals`` instead of building and validating the
    coupling, so no support-size limit applies. ``max_variables`` caps
    the LP of the m >= 5 route and ``verdict`` is passed on to
    ``minimal_y_coupling``.
    """
    table = _mixture_table(tuple(sources), max_variables, verdict)
    _check_table_marginals(table)
    f = sum(table.p_min.values(), ZERO)
    for ys, w in table.weights.items():
        first, *rest = (table.residual[i][y] for i, y in enumerate(ys))
        tied = ZERO
        for x, q in first.items():
            for r in rest:
                if x not in r:
                    break
                q *= r[x]
            else:
                tied += q
        if tied:
            f += w * len(set(ys)) * tied
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
