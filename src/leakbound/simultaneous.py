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

The ingredient Y-coupling comes from the closed forms where available
(m = 2 pair coupling, m = 3 via a duplicated-marginal four-way build,
m = 4 four-way mixture) and otherwise from the diagonal-floored LP; all
routes pin the diagonal to min_i P_{Y_i}(y), which is what keeps H
nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .couplings import (
    Coupling,
    build_n4_coupling,
    diagonal_mass,
    maximal_coupling_pair,
    n4_condition,
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
    Pmf,
    Symbol,
    check_alphabet,
    exact_masses,
    tau_max,
    tau_max2,
)


class JointPmf:
    """An exact joint PMF over a product alphabet X x Y."""

    __slots__ = ("x_alphabet", "y_alphabet", "mass")

    def __init__(
        self,
        x_alphabet: Iterable[Symbol],
        y_alphabet: Iterable[Symbol],
        mass: Mapping[tuple, object],
    ):
        x_alphabet = check_alphabet(x_alphabet)
        y_alphabet = check_alphabet(y_alphabet)
        xs, ys = set(x_alphabet), set(y_alphabet)
        clean = exact_masses(
            ((tuple(cell), q) for cell, q in mass.items()),
            lambda cell: len(cell) == 2 and cell[0] in xs and cell[1] in ys,
        )
        object.__setattr__(self, "x_alphabet", x_alphabet)
        object.__setattr__(self, "y_alphabet", y_alphabet)
        object.__setattr__(self, "mass", clean)

    def __setattr__(self, name, value):
        raise AttributeError("JointPmf is immutable")

    def __getitem__(self, cell: tuple) -> Fraction:
        return self.mass.get(tuple(cell), ZERO)

    def y_marginal(self) -> Pmf:
        out: dict[Symbol, Fraction] = {}
        for (x, y), q in self.mass.items():
            out[y] = out.get(y, ZERO) + q
        return Pmf(self.y_alphabet, out)

    def x_marginal(self) -> Pmf:
        out: dict[Symbol, Fraction] = {}
        for (x, y), q in self.mass.items():
            out[x] = out.get(x, ZERO) + q
        return Pmf(self.x_alphabet, out)

    def __eq__(self, other):
        if not isinstance(other, JointPmf):
            return NotImplemented
        return (
            self.x_alphabet == other.x_alphabet
            and self.y_alphabet == other.y_alphabet
            and self.mass == other.mass
        )

    def __repr__(self):
        return f"JointPmf(|X|={len(self.x_alphabet)}, |Y|={len(self.y_alphabet)})"


def coupling_feasibility(y_pmfs: Sequence[Pmf]) -> tuple[bool, str, Fraction]:
    """Whether a minimal coupling of these marginals is available.

    Returns (ok, condition label, exact value). For m != 4 the condition
    is tau_max2 <= 1; for m = 4 the relaxed pair-normalizer condition is
    used, which subsumes tau_max2 <= 1.
    """
    m = len(y_pmfs)
    if m < 2:
        raise LeakboundError("need at least two marginals")
    if m == 4:
        ok, ing = n4_condition(y_pmfs)
        return ok, "four-way pair-capacity condition", ing.condition_slack()
    value = tau_max2(DiscreteChannel(y_pmfs))
    # For m = 2 the second maximum is the minimum, so this always passes.
    return value <= 1, "tau_max2 <= 1", value


def _three_way_by_duplication(y_pmfs: Sequence[Pmf]) -> Coupling:
    """Minimal three-way coupling from the four-way construction.

    Duplicating the last marginal turns the trio into a four-family whose
    existence condition is algebraically equivalent to tau_max2 of the
    trio being at most 1 (the duplicated pair leaves a single active
    pairing whose capacity is exactly the required budget). Projecting
    the duplicate coordinate back out preserves the union mass, the
    marginals, and the pinned diagonal.
    """
    p1, p2, p3 = y_pmfs
    four = build_n4_coupling([p1, p2, p3, p3])
    mass: dict[tuple, Fraction] = {}
    for (a, b, c, _), q in four.mass.items():
        key = (a, b, c)
        mass[key] = mass.get(key, ZERO) + q
    return Coupling(p1.alphabet, 3, mass, [p1, p2, p3])


def minimal_y_coupling(
    y_pmfs: Sequence[Pmf], max_variables: int = DEFAULT_MAX_STATES
) -> Coupling:
    """A coupling attaining union mass tau_max with a pinned diagonal.

    Dispatch: closed forms for m <= 4 (the m = 3 case reuses the
    four-way construction with a duplicated marginal), diagonal-floored
    LP beyond that. Raises ``PreconditionError`` when no route applies.
    """
    y_pmfs = tuple(y_pmfs)
    m = len(y_pmfs)
    ok, label, value = coupling_feasibility(y_pmfs)
    if not ok:
        raise PreconditionError(label, value)
    if m == 2:
        coupling = maximal_coupling_pair(*y_pmfs)
    elif m == 3:
        coupling = _three_way_by_duplication(y_pmfs)
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
        out: dict[tuple, Fraction] = {}
        for (xs, ys), q in self.mass.items():
            cell = (xs[i], ys[i])
            out[cell] = out.get(cell, ZERO) + q
        return out

    def y_projection(self) -> dict[tuple, Fraction]:
        out: dict[tuple, Fraction] = {}
        for (xs, ys), q in self.mass.items():
            out[ys] = out.get(ys, ZERO) + q
        return out

    def validate(self) -> None:
        """Exact checks of every structural identity; raises on failure."""
        total = sum(self.mass.values(), ZERO)
        if total != 1:
            raise ConstructionError(f"coupling mass sums to {total}")
        for i, src in enumerate(self.sources):
            got = self.source_marginal(i)
            for x in src.x_alphabet:
                for y in src.y_alphabet:
                    if got.get((x, y), ZERO) != src[(x, y)]:
                        raise ConstructionError(
                            f"source {i} marginal mismatch at {(x, y)!r}"
                        )
        proj = self.y_projection()
        if proj != dict(self.y_coupling.mass):
            raise ConstructionError("Y-projection differs from ingredient coupling")


def build_simultaneous_coupling(
    sources: Sequence[JointPmf],
    max_states: int = DEFAULT_MAX_STATES,
) -> SimulCoupling:
    """Assemble the three-part mixture described in the module docstring.

    ``max_states`` caps both the assembled support and the variable count
    of the fallback LP that builds the ingredient Y-coupling.
    """
    sources = tuple(sources)
    m = len(sources)
    if m < 2:
        raise LeakboundError("need at least two joint PMFs")
    x_alphabet = sources[0].x_alphabet
    y_alphabet = sources[0].y_alphabet
    for s in sources:
        if s.x_alphabet != x_alphabet or s.y_alphabet != y_alphabet:
            raise LeakboundError("sources must share both alphabets")

    y_marginals = [s.y_marginal() for s in sources]
    y_coupling = minimal_y_coupling(y_marginals, max_variables=max_states)

    p_min = {
        (x, y): min(s[(x, y)] for s in sources)
        for x in x_alphabet
        for y in y_alphabet
    }
    p_ymin = {y: min(p[y] for p in y_marginals) for y in y_alphabet}
    c_xy = sum(p_min.values(), ZERO)
    c_y = sum(p_ymin.values(), ZERO)

    # Residual of source i above the cellwise floor, conditioned per y.
    res_num: list[dict[tuple, Fraction]] = []
    res_den: list[dict[Symbol, Fraction]] = []
    for i, s in enumerate(sources):
        num = {}
        den: dict[Symbol, Fraction] = {y: ZERO for y in y_alphabet}
        for x in x_alphabet:
            for y in y_alphabet:
                d = s[(x, y)] - p_min[(x, y)]
                if d:
                    num[(x, y)] = d
                    den[y] += d
        res_num.append(num)
        res_den.append(den)

    def residual_support(i: int, y: Symbol) -> list[tuple[Symbol, Fraction]]:
        den = res_den[i][y]
        return [
            (x, res_num[i][(x, y)] / den)
            for x in x_alphabet
            if (x, y) in res_num[i]
        ]

    # Capacity estimate before materializing anything.
    est = sum(1 for q in p_min.values() if q)
    for y in y_alphabet:
        outer = p_ymin[y] - sum(p_min[(x, y)] for x in x_alphabet)
        if outer:
            cells = 1
            for i in range(m):
                cells *= sum(1 for x in x_alphabet if (x, y) in res_num[i])
            est += cells
    for y_tuple, q in y_coupling.mass.items():
        if all(v == y_tuple[0] for v in y_tuple):
            q = q - p_ymin[y_tuple[0]]
        if q:
            cells = 1
            for i, y in enumerate(y_tuple):
                cells *= sum(1 for x in x_alphabet if (x, y) in res_num[i])
            est += cells
    if est > max_states:
        raise CapacityError(est, max_states, "coupling support tuples")

    mass: dict[tuple, Fraction] = {}

    def add(xs: tuple, ys: tuple, q: Fraction):
        if q < 0:
            raise ConstructionError(f"negative mass {q} at {(xs, ys)!r}")
        if q:
            key = (xs, ys)
            mass[key] = mass.get(key, ZERO) + q

    # G1: fully tied diagonal. Weight c_XY cancels the 1/c_XY normalizer.
    for (x, y), q in p_min.items():
        add((x,) * m, (y,) * m, q)

    # G2: Y's tied at y, X's independent residuals; the outer factor
    # P_Ymin(y) - sum_x P_min(x, y) is zero exactly when some residual
    # denominator vanishes, so such y are skipped as a whole.
    for y in y_alphabet:
        outer = p_ymin[y] - sum(p_min[(x, y)] for x in x_alphabet)
        if not outer:
            continue
        supports = [residual_support(i, y) for i in range(m)]
        for combo in product(*supports):
            q = outer
            for _, weight in combo:
                q *= weight
            add(tuple(x for x, _ in combo), (y,) * m, q)

    # G3: the ingredient coupling minus its diagonal floor, with X's from
    # the per-coordinate residuals. The pinned diagonal makes H vanish on
    # tied tuples, so G3 and G2 never overlap.
    for y_tuple, q in y_coupling.mass.items():
        h = q
        if all(v == y_tuple[0] for v in y_tuple):
            h = q - p_ymin[y_tuple[0]]
        if not h:
            continue
        supports = [residual_support(i, y) for i, y in enumerate(y_tuple)]
        for combo in product(*supports):
            w = h
            for _, weight in combo:
                w *= weight
            add(tuple(x for x, _ in combo), y_tuple, w)

    built = SimulCoupling(
        sources=sources,
        mass=mass,
        c_xy=c_xy,
        c_y=c_y,
        y_coupling=y_coupling,
    )
    built.validate()
    return built


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
