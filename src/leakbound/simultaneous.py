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

G2 and G3 are Y-tuple weights, held as a ``couplings.Mixture`` holds
them: G3 is H's untied listed tuples and its parts of two or more
groups, which reach untied tuples only, and G2 the listed tuples
(y, ..., y) of weight P_Ymin(y) - sum_x P_min(x, y). A tuple t of weight
w is spread over X-tuples as w * prod_i r_i(x_i | t_i), r_i(. | y) the
residual of source i above the cellwise floor, given y:

    r_i(x | y) = (P_i(x, y) - P_min(x, y)) / (P_i(y) - sum_x P_min(x, y)),

the normalizer read off the marginal. No two of them share a Y-tuple
(H's four-way parts each tie their own partition of the coordinates, and
the listed tuples are distinct, untied or tied), and none meets G1,
which would need every source above the floor at a cell some source
attains. So the support size is known before anything is listed: the
nonzero cells of P_min plus, per listed tuple t, prod_i |r_i(. | t_i)|,
plus, per part, prod_g sum_{y in g} prod_{i in g} |r_i(. | y)|.

``_minimal_parts`` builds H: the four-way mixture, as parts, at m = 4,
and the interval coupling (``_interval_parts``), as listed tuples, at
every other m; no route solves an LP. It is the one place that decides
the condition H needs: a route refuses it failing, or passes it with its
label and value (``coupling_feasibility``). Both pin the diagonal to
min_i P_{Y_i}(y), which keeps H nonnegative and off the tied tuples.
``_check_mixture`` checks H, its listed tuples in one loop and its parts
in another: disjoint group supports, the Y-marginals, union mass
tau_max and the diagonal. Then every source is preserved: the weights of
the tuples with t_i = y add up to the residual total of source i at y,
P_i(y) - sum_x P_min(x, y).

Everything is computed on integers, in one pass over the law of the
joints' channel (``DiscreteChannel.columns``, each (x, y) cell as
numerators over one den, as inference built it): P_min, the floor sum_x
P_min(x, y), the Y-marginals, and d_i(x, y) = P_i(x, y) - P_min(x, y)
with its total rest_i(y) = P_i(y) - floor(y), so r_i = d_i / rest_i. H
is built from the Y-marginals' law, P_{V|X} for a peel step's joints
P_{pa(U),V|X}, which decides its V-side condition. A part is ``(den,
groups)``, integer entries over one denominator, and a listed tuple's
weight a numerator over the marginals' den (see ``couplings``); the
checks cross-multiply over the LCM of those denominators.

The bounds' penalty f = sum_y P(X_1 = ... = X_m, some Y_i = y) is read
off the same weights, never the X-tuples they spread over. G1 adds c_XY.
A listed Y-tuple t of weight w / den adds |set(t)| * w * sum_x prod_i
d_i(x, t_i) over den * prod_i rest_i(t_i), in one pass over the tuples.
A part of g groups puts mass only on Y-tuples of g distinct symbols, so
it adds g * sum_x prod_g sum_y q_g(y) prod_{i in g} r_i(x | y); each
group's sum is N_g(x) / M_g, M_g the LCM of prod_{i in g} rest_i(y) over
its y. A tuple or a y where some rest_i is 0 adds nothing.
``coupling_penalty`` builds one ``Fraction``, for f.
``build_simultaneous_coupling`` counts the support off the listed tuples
and the parts, and only under its limit lists the coupling, each part
once, as integer numerators over one denominator, the LCM of den and
every Y-tuple's part_den * prod_i rest_i(y_i) (part_den = den for a
listed tuple), kept as a ``measures.ExactLaw``; it is listed for
``couple --mode simul`` and as the reference the penalty is tested
against. The same pass forms H's law: the untied Y-tuples it spreads,
plus the diagonal min_i P_{Y_i}(y) that ``_check_mixture`` pinned.
``y_union_mass`` and ``f_quantity`` sum the numerators, and a
``Fraction`` per tuple is built only when ``mass`` is read.

One source is its own coupling: its one Y-marginal passes the condition
with no value, the G2 weights are 0 and f = c_XY = 1. The penalty
accepts it; ``build_simultaneous_coupling``, like the coupling LP,
refuses fewer than two sources.

Which type validates what: each source is a ``measures.JointPmf``, a
``Pmf`` over its (x, y) cells; the ``DiscreteChannel`` of the sources
checks that they share one X and one Y alphabet, and ``SimulCoupling``
keeps it as ``joints``; the Y-coupling is a ``couplings.Coupling`` of
H's law, checked against the Y-marginals' law; ``SimulCoupling.validate``
checks the assembled law: signs, total mass, every source marginal
against the nonzero cells of ``joints`` and the Y-projection against the
Y-coupling's numerators. Each check sums the kept integer numerators
over the support and compares them cross-multiplied; only a failure
walks the axes, to name its first bad cell in x-major order, and a
``Fraction`` is built only for a message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .couplings import (
    FOUR_WAY_CONDITION,
    TAU_MAX2_CONDITION,
    Coupling,
    Mixture,
    _interval_parts,
    _list_part,
    n4_ingredients,
    n4_mixture,
)
from .errors import (
    DEFAULT_MAX_STATES,
    CapacityError,
    ConstructionError,
    LeakboundError,
    PreconditionError,
    exact_str,
)
# Unused: test_wrappers_are_installed_everywhere_and_removed_cleanly in
# bench/test_bench.py asserts this binding.
from .lp import min_union_coupling_diag  # noqa: F401
from .measures import (
    DiscreteChannel,
    ExactLaw,
    JointPmf,
    Pmf,
    Symbol,
    doeblin,
    numerators,
    push_forward,
)


class Feasibility(NamedTuple):
    """The verdict of ``_minimal_parts``: ``ok``, its label and value."""

    ok: bool
    label: str
    value: Fraction | None


def coupling_feasibility(y_pmfs: Sequence[Pmf] | DiscreteChannel) -> Feasibility:
    """Decide the existence condition of a minimal coupling, exactly, by
    building it (``_minimal_parts``); one marginal passes with value None."""
    channel = y_pmfs if isinstance(y_pmfs, DiscreteChannel) else DiscreteChannel(y_pmfs)
    try:
        _, label, num = _minimal_parts(channel)
    except PreconditionError as refusal:
        return Feasibility(False, refusal.condition, refusal.value)
    return Feasibility(True, label, None if num is None else Fraction(num, channel.den))


def _check_mixture(mixture: Mixture) -> None:
    """Check a minimal pinned Y-coupling of ``mixture.marginals`` in closed
    form, off its listed tuples, its parts and the marginals' law.

    Raises ``ConstructionError`` unless the groups of every part have
    pairwise disjoint supports, every coordinate has its marginal, the
    union mass sum_t |set(t)| * w_t + sum_parts g * prod_g |q_g| is
    tau_max, and the diagonal, which only constant tuples and one-group
    parts reach, is min_i P_i(y) at every output symbol. The sums are
    compared cross-multiplied over the LCM of the denominators; a
    ``Fraction`` is built only for a message.
    """
    marginals = mixture.marginals
    den, columns, alphabet = marginals.den, marginals.columns, marginals.output_alphabet
    scale = lcm(den if mixture.tuples else 1, *(part_den for part_den, _ in mixture.parts))
    got = [{} for _ in range(marginals.n)]
    diagonal, union = {}, 0
    lift = scale // den
    for tup, w in mixture.tuples:
        w *= lift
        for marginal, y in zip(got, tup):
            marginal[y] = marginal.get(y, 0) + w
        distinct = len(set(tup))
        union += distinct * w
        if distinct == 1:
            diagonal[tup[0]] = diagonal.get(tup[0], 0) + w
    for part_den, groups in mixture.parts:
        lift = scale // part_den
        seen, totals = set(), []
        for _, entries in groups:
            symbols = {y for y, _ in entries}
            if seen & symbols:
                raise ConstructionError(f"part with overlapping group supports at {seen & symbols}")
            seen |= symbols
            totals.append(sum(e for _, e in entries))
        union += len(groups) * prod(totals) * lift
        for g, (coords, entries) in enumerate(groups):
            others = prod(totals[:g] + totals[g + 1:]) * lift
            for y, e in entries:
                for i in coords:
                    got[i][y] = got[i].get(y, 0) + e * others
                if len(groups) == 1:
                    diagonal[y] = diagonal.get(y, 0) + e * lift
    for i, marginal in enumerate(got):
        declared = {y: col[i] for y, col in columns.items() if col[i]}
        if marginal.keys() != declared.keys() or any(
            q * den != declared[y] * scale for y, q in marginal.items()
        ):
            shown = {y: Fraction(q, scale) for y, q in marginal.items()}
            want = {y: Fraction(declared[y], den) for y in alphabet if y in declared}
            raise ConstructionError(f"ingredient marginal {i} is {shown}, declared {want}")
    target = sum(map(max, columns.values()))
    if union * den != target * scale:
        raise ConstructionError(
            f"ingredient coupling union mass {Fraction(union, scale)}"
            f" != tau_max {Fraction(target, den)}"
        )
    for y in alphabet:
        tied, floor = diagonal.get(y, 0), min(columns[y]) if y in columns else 0
        if tied * den != floor * scale:
            raise ConstructionError(
                f"ingredient diagonal at {y!r} is {Fraction(tied, scale)}, needs {Fraction(floor, den)}"
            )


def minimal_y_coupling(y_pmfs: Sequence[Pmf]) -> Mixture:
    """A coupling attaining union mass tau_max with a pinned diagonal:
    the mixture of ``_minimal_parts``, which raises ``PreconditionError``
    with the label and value ``coupling_feasibility`` reports."""
    return _minimal_parts(DiscreteChannel(y_pmfs))[0]


def _minimal_parts(marginals: DiscreteChannel) -> tuple[Mixture, str, int | None]:
    """A minimal pinned coupling of ``marginals``, read off their law and
    checked, with the condition it passed: its label and its value's
    numerator over ``den`` (None at m = 1). Two routes, by m alone, each
    refusing its own failing condition: the four-way mixture at m = 4, as
    parts, valued by its slack, and the interval coupling, as listed
    tuples, valued by its core total, tau_max2. Soundness at every m: any
    minimal pinned Y-coupling gives a valid penalty f, so the route may
    pick any one."""
    m = marginals.n
    if m == 4:
        ing = n4_ingredients(marginals)
        mixture, label, num = n4_mixture(ing), FOUR_WAY_CONDITION, ing._slack()
    else:
        num, tuples = _interval_parts(marginals.den, marginals.columns, m)
        mixture, label, num = Mixture(marginals, (), tuples), TAU_MAX2_CONDITION, num if m > 1 else None
    _check_mixture(mixture)
    return mixture, label, num


@dataclass(frozen=True)
class _MixtureTable:
    """What the mixture is assembled from (see the module docstring), as
    integer numerators over ``den``, the joints' common denominator:
    ``y_coupling`` H, whose marginals are the channel of the Y-marginals
    (over its own den), ``condition`` the label of the condition H passed
    and its value's numerator over that den (``_minimal_parts``), the
    G2/G3 Y-weights as ``tuples``, listed ``(tuple, w)`` pairs, and as
    ``parts``, H's mixture parts of two or more groups, ``p_min`` the
    nonzero cellwise minima, ``residual[i][y]`` mapping x to d_i(x, y) =
    P_i(x, y) - P_min(x, y) where it is nonzero, and ``rest[i][y]`` =
    P_i(y) - sum_x P_min(x, y), so that r_i(x | y) = d_i(x, y) /
    rest_i(y)."""

    den: int
    y_coupling: Mixture
    condition: tuple[str, int | None]
    tuples: Sequence[tuple[tuple, int]]
    parts: Sequence[tuple]
    p_min: Mapping[tuple, int]
    residual: tuple[Mapping[Symbol, Mapping[Symbol, int]], ...]
    rest: tuple[Mapping[Symbol, int], ...]


def _mixture_table(joints: DiscreteChannel) -> _MixtureTable:
    """The table of ``joints``, a channel over (x, y) cells, read off its
    law in one pass over the cells; H is built by ``_minimal_parts`` from
    the Y-marginals, whose refusal is raised."""
    den, cells, m = joints.den, joints.columns, joints.n
    p_min, floor, y_columns = {}, {}, {}
    residual = tuple({} for _ in range(m))
    for (x, y), col in cells.items():
        low = min(col)
        if low:
            p_min[(x, y)] = low
            floor[y] = floor.get(y, 0) + low
        total = y_columns.setdefault(y, [0] * m)
        for i, q in enumerate(col):
            total[i] += q
            if q != low:
                residual[i].setdefault(y, {})[x] = q - low
    y_marginals = DiscreteChannel.from_law(den, y_columns, joints.axes[1:], joints.input_alphabet)
    h, label, num = _minimal_parts(y_marginals)

    rest = tuple({y: col[i] - floor.get(y, 0) for y, col in y_columns.items()} for i in range(m))
    # H's tuples are over the Y-marginals' den, which divides den.
    lift = den // y_marginals.den
    tuples = [(tup, w * lift) for tup, w in h.tuples if len(set(tup)) > 1]
    tuples += [((y,) * m, w) for y, col in y_columns.items() if (w := min(col) - floor.get(y, 0))]
    parts = [part for part in h.parts if len(part[1]) > 1]
    return _MixtureTable(den, h, (label, num), tuples, parts, p_min, residual, rest)


@dataclass(frozen=True)
class SimulCoupling:
    """The assembled joint coupling plus the quantities it was built from.

    ``mass``, keyed by (x_tuple, y_tuple), is an ``ExactLaw`` as built;
    ``joints`` is the channel of the sources, whose law ``validate``
    checks the source marginals against."""

    joints: DiscreteChannel
    mass: Mapping[tuple, Fraction]
    c_xy: Fraction
    c_y: Fraction
    y_coupling: Coupling

    @property
    def sources(self) -> tuple[JointPmf, ...]:
        """The source joints, built from their law when asked."""
        return self.joints.rows

    @property
    def arity(self) -> int:
        return self.joints.n

    def source_marginal(self, i: int) -> dict[tuple, Fraction]:
        """Projection onto (X_i, Y_i) as a cell -> mass dict."""
        return push_forward(self.mass, lambda cell: (cell[0][i], cell[1][i]))

    def y_projection(self) -> dict[tuple, Fraction]:
        return push_forward(self.mass, itemgetter(1))

    def validate(self) -> None:
        """Exact checks of every mass's sign and every structural
        identity, off passes over the support; raises on failure. The
        masses' numerators (``measures.numerators``) are summed and
        cross-multiplied against the law of the joints and the
        Y-coupling's numerators."""
        scale, nums = numerators(self.mass)
        if nums and min(nums.values()) < 0:
            cell, num = next((cell, num) for cell, num in nums.items() if num < 0)
            raise ConstructionError(f"negative mass {exact_str(Fraction(num, scale))} at {cell!r}")
        proj = {}
        for (_, ys), num in nums.items():
            proj[ys] = proj.get(ys, 0) + num
        total = sum(proj.values())
        if total != scale:
            raise ConstructionError(f"coupling mass sums to {exact_str(Fraction(total, scale))}")
        den, cells = self.joints.den, self.joints.columns
        for i in range(self.arity):
            got = {}
            for (xs, ys), num in nums.items():
                cell = xs[i], ys[i]
                got[cell] = got.get(cell, 0) + num
            want = {cell: col[i] for cell, col in cells.items() if col[i]}
            bad = [cell for cell, num in got.items() if num * den != want.get(cell, 0) * scale]
            bad += [cell for cell in want if cell not in got]
            if bad:  # named by the first bad cell on the axes, x-major
                xi, yi = ({s: k for k, s in enumerate(axis)} for axis in self.joints.axes)
                *_, cell = min((xi[x], yi[y], (x, y)) for x, y in bad if x in xi and y in yi)
                raise ConstructionError(f"source {i} marginal mismatch at {cell!r}")
        y_den, y_nums = numerators(self.y_coupling.mass)
        if proj.keys() != y_nums.keys() or any(
            num * y_den != y_nums[ys] * scale for ys, num in proj.items()
        ):
            raise ConstructionError("Y-projection differs from ingredient coupling")


def build_simultaneous_coupling(
    sources: Sequence[JointPmf],
    max_states: int = DEFAULT_MAX_STATES,
) -> SimulCoupling:
    """Assemble the three-part mixture described in the module docstring.

    ``max_states`` caps the assembled support, counted off the G2/G3
    parts before any tuple is listed. Like the coupling LP, it refuses
    fewer than two sources.
    """
    sources = tuple(sources)
    if len(sources) < 2:
        raise LeakboundError("need at least two joint PMFs")
    joints = DiscreteChannel(sources)
    table = _mixture_table(joints)
    m, den = len(sources), table.den
    residual, rest = table.residual, table.rest

    # The exact support size, before materializing anything.
    est = len(table.p_min) + sum(
        prod(len(residual[i][y]) for i, y in enumerate(ys)) for ys, _ in table.tuples
    ) + sum(
        prod(sum(prod(len(residual[i][y]) for i in c) for y, _ in e) for c, e in groups)
        for _, groups in table.parts
    )
    if est > max_states:
        raise CapacityError(est, max_states, "coupling support tuples")

    # G2 and G3: a Y-tuple of weight w / part_den (den for a listed one)
    # is spread over X-tuples as w * prod_i d_i(x_i, y_i) over norm =
    # part_den * prod_i rest_i(y_i). Every mass is listed as a numerator
    # over the LCM of den and the norms.
    listed = [(ys, w, part[0]) for part in table.parts for ys, w in _list_part(part, m)]
    listed += [(ys, w, den) for ys, w in table.tuples]
    spread = [(ys, w, part_den, part_den * prod(rest[i][y] for i, y in enumerate(ys)))
              for ys, w, part_den in listed]
    scale = lcm(den, *(norm for *_, norm in spread))
    # H, the Y-coupling, is its diagonal min_i P_{Y_i}(y), which
    # ``_check_mixture`` pinned, plus the untied listed tuples, as
    # numerators over the LCM of den and the part dens.
    marginals = table.y_coupling.marginals
    y_scale = lcm(den, *(part_den for part_den, _ in table.parts))
    lift = y_scale // marginals.den
    y_nums = {(y,) * m: low * lift for y, col in marginals.columns.items() if (low := min(col))}
    # G1: fully tied diagonal. Weight c_XY cancels the 1/c_XY normalizer.
    lift = scale // den
    nums = {((x,) * m, (y,) * m): q * lift for (x, y), q in table.p_min.items()}
    for ys, w, part_den, norm in spread:
        if ys not in y_nums:  # every tied (G2) tuple is on H's diagonal
            y_nums[ys] = w * (y_scale // part_den)
        w *= scale // norm
        rows = [residual[i][y] for i, y in enumerate(ys)]
        for xs, ds in zip(product(*rows), product(*(row.values() for row in rows))):
            nums[(xs, ys)] = w * prod(ds)

    built = SimulCoupling(
        joints=joints,
        mass=ExactLaw(scale, nums),
        c_xy=Fraction(sum(table.p_min.values()), den),
        c_y=doeblin(marginals),
        y_coupling=Coupling(marginals.output_alphabet, m, ExactLaw(y_scale, y_nums), marginals),
    )
    built.validate()
    return built


def _group_sums(table: _MixtureTable, coords: tuple[int, ...], entries: tuple) -> tuple[int, dict]:
    """(M, {x: N(x)}) with N(x) / M = sum_y e(y) prod_{i in coords} r_i(x | y)
    over the group's entries: each y adds e(y) prod_i d_i(x, y) times
    M / prod_i rest_i(y), M the LCM of those products. A y where some
    rest_i(y) is 0 adds nothing, as every d_i(., y) is 0 there."""
    rest, residual = table.rest, table.residual
    terms = [(y, e, norm) for y, e in entries if (norm := prod(rest[i][y] for i in coords))]
    common = lcm(*(norm for _, _, norm in terms))
    first, *others = coords
    sums: dict = {}
    for y, e, norm in terms:
        k = e * (common // norm)
        lists = [residual[i][y] for i in others]
        for x, d in residual[first][y].items():
            for r in lists:
                d *= r.get(x, 0)
            if d:
                sums[x] = sums.get(x, 0) + k * d
    return common, sums


def coupling_penalty(sources: Sequence[JointPmf] | DiscreteChannel) -> Fraction:
    """``f_quantity(build_simultaneous_coupling(sources))``, unbuilt.

    Reads f = c_XY + sum_t |set(t)| * w_t * sum_x prod_i r_i(x | t_i) +
    sum_parts g * sum_x prod_g sum_y q_g(y) prod_{i in g} r_i(x | y) off
    the G2/G3 listed tuples and parts of ``_mixture_table``, in integers
    (``_penalty``), and builds one ``Fraction`` at the end. No X-tuple is
    listed, so no size limit applies. ``sources`` may be the channel of
    the joints, whose law is then read as it is. The Y-coupling refuses
    as in ``minimal_y_coupling``.
    """
    joints = sources if isinstance(sources, DiscreteChannel) else DiscreteChannel(sources)
    return _penalty(_mixture_table(joints))


def _penalty(table: _MixtureTable) -> Fraction:
    """f of ``coupling_penalty``, read off ``table``: a listed tuple t of
    weight w adds |set(t)| * w * sum_x prod_i d_i(x, t_i) over den *
    prod_i rest_i(t_i), a part of g groups g * sum_x prod_g N_g(x) over
    part_den * prod_g M_g (``_group_sums``)."""
    num, den = sum(table.p_min.values()), table.den
    residual, rest = table.residual, table.rest
    terms = []
    for tup, w in table.tuples:
        norm, rows = table.den, []
        for i, y in enumerate(tup):
            row = residual[i].get(y)
            if row is None:
                break  # rest_i(y) is 0: the tuple adds nothing
            norm *= rest[i][y]
            rows.append(row)
        else:
            first, *others = rows
            total = 0
            for x, d in first.items():
                for row in others:
                    d *= row.get(x, 0)
                total += d
            terms.append((len(set(tup)) * w * total, norm))
    for part_den, groups in table.parts:
        common = None
        for coords, entries in groups:
            group_den, sums = _group_sums(table, coords, entries)
            part_den *= group_den
            common = sums if common is None else {
                x: v * sums[x] for x, v in common.items() if x in sums
            }
        terms.append((len(groups) * sum(common.values()), part_den))
    for term, term_den in terms:
        if term:
            both = lcm(den, term_den)
            num, den = num * (both // den) + term * (both // term_den), both
    return Fraction(num, den)


def y_union_mass(coupling: SimulCoupling) -> Fraction:
    """sum_y P(union_i {Y_i = y}) under the coupling, summed on the
    masses' numerators."""
    scale, nums = numerators(coupling.mass)
    return Fraction(sum(num * len(set(ys)) for (_, ys), num in nums.items()), scale)


def f_quantity(coupling: SimulCoupling) -> Fraction:
    """sum_y P(X_1 = ... = X_m and union_i {Y_i = y}), summed on the
    masses' numerators.

    With the X-coordinates playing the role of a peeled node's parents,
    this is the "loss in leakage" correction of the coupling-based bound.
    """
    scale, nums = numerators(coupling.mass)
    return Fraction(sum(num * len(set(ys)) for (xs, ys), num in nums.items()
                        if len(set(xs)) == 1), scale)
