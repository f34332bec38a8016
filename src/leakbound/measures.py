"""Exact probability laws, discrete channels, and leakage measures.

All probabilities are ``fractions.Fraction`` values and every operation in
this module is exact; the only floating-point quantity produced anywhere is
the logarithm taken at the reporting boundary (``maximal_leakage``).

Every single law (a ``Pmf``, a ``JointPmf``, a ``couplings.Coupling``) is
held one way, as an ``ExactLaw``: integer numerators over one
denominator, with a ``Fraction`` built only for a cell that is read.
Every one is validated by one function, ``exact_law``. In one pass over
the cells it refuses unknown cells and negative masses, coercing a
``Fraction`` mass (or taking an integer numerator); then it adds up each
cell's masses over one denominator and checks the total on integers. A
``Fraction`` is built only for a message. The routines that take laws read those numerators
(``numerators``), lift them to a common denominator, and compare sums
cross-multiplied.

* ``Pmf`` checks its alphabet and its masses (non-negative, exactly 1 in
  total, only on known symbols), and keeps them as an ``ExactLaw``.
  ``JointPmf`` is a ``Pmf`` whose alphabet is the (x, y) cells of X x Y,
  so it is validated, looked up and compared as one.
* ``DiscreteChannel`` holds a family's law on integers, its rows'
  numerators lifted to their LCM and reduced. Built from rows, it checks
  that they share one alphabet, the only such check: every routine that
  takes a family (the closed-form couplings, the coupling LP, the
  simultaneous coupling, ``Coupling`` off its alphabet) builds a channel
  of it first. ``from_law`` checks a law given on integers.
* ``couplings.Coupling``, a law over |Y|^m tuples that are never listed
  as an alphabet, runs its masses through ``exact_law``. It then adds up
  each coordinate's numerators and cross-multiplies them against the law
  of its declared marginals, a ``DiscreteChannel``, so no marginal
  ``Pmf`` is looked up.

The scalar measures of a channel with rows P_1, ..., P_n over alphabet Y:

    tau_max   = sum_y max_i P_i(y)       (leakage exponent / max-Doeblin)
    tau_max2  = sum_y max2_i P_i(y)      (column-wise second largest)
    tau       = sum_y min_i P_i(y)       (Doeblin coefficient)
    tau_I     = sum_y min_{i in I} P_i(y) for an index subset I

``max2`` counts ties with multiplicity: it is the second entry of the
column sorted in descending order, so two equal maxima give max2 = max.

They are computed on the channel's law (``DiscreteChannel.den`` and
``.columns``), which keeps a column for the union of the rows' supports
only (a column outside every support adds 0 to each sum). Each measure
adds integers and builds one ``Fraction(total, den)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import LeakboundError, exact_str, output_str

Symbol = Hashable

ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings ("3/4", "0.25") and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: probabilities must be exact "
            "(use a string or Fraction)"
        )
    return Fraction(value)


def format_fraction(q: Fraction) -> str:
    """num/den, always with an explicit denominator (``errors.output_str``)."""
    text = output_str(q)
    return text if q.denominator != 1 else f"{text}/1"


def log_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, stable for large num/den."""
    if q <= 0:
        raise ValueError(f"log of non-positive rational {q}")
    return math.log(q.numerator) - math.log(q.denominator)


def check_alphabet(alphabet: Iterable[Symbol]) -> tuple:
    """The alphabet as a tuple; rejects an empty one and repeated symbols."""
    alphabet = tuple(alphabet)
    if not alphabet:
        raise LeakboundError("alphabet is empty")
    if len(set(alphabet)) != len(alphabet):
        raise LeakboundError(f"alphabet {alphabet!r} contains duplicate symbols")
    return alphabet


def _over_lcm(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The values as integer numerators over their least common
    denominator L: returns (L, [q * L for q in values])."""
    values = list(values)
    dens = [q.denominator for q in values]
    den = math.lcm(*dens)
    return den, [q.numerator * (den // d) for q, d in zip(values, dens)]


class ExactLaw(Mapping):
    """A read-only law kept as integer numerators over one denominator:
    ``nums`` maps each cell to its numerator over ``den``. Read as a
    mapping, a cell's mass is ``Fraction(nums[cell], den)``, built only
    when that cell is read."""

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: Mapping[Hashable, int]):
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("ExactLaw is immutable")

    def __getitem__(self, cell) -> Fraction:
        return Fraction(self.nums[cell], self.den)

    def __contains__(self, cell) -> bool:
        return cell in self.nums

    def __iter__(self) -> Iterator:
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self):
        return repr(dict(self.items()))


def numerators(mass: Mapping) -> tuple[int, Mapping]:
    """(den, cell -> numerator over den) of a mapping of masses: an
    ``ExactLaw``'s own, with no work; any other mapping's over the LCM of
    its masses, formed by ``_over_lcm``."""
    if isinstance(mass, ExactLaw):
        return mass.den, mass.nums
    den, nums = _over_lcm(mass.values())
    return den, dict(zip(mass, nums))


def exact_law(
    cells: Iterable[tuple[Hashable, object]], known: Callable[[Hashable], bool], den: int | None = None
) -> ExactLaw:
    """Validate (cell, mass) pairs as one probability law: masses coerced
    by ``as_fraction``, or integer numerators over ``den`` if given. One
    loop refuses cells for which ``known`` is false and negative masses;
    then each cell's positive masses are added up over the LCM of their
    denominators, and the total must be exactly 1, on integers. Returns
    the law of the positive cells, in order of first appearance."""
    if den is not None and den < 1:
        raise LeakboundError(f"denominator {den} is not positive")
    kept, scale = [], den or 1
    for cell, raw in cells:
        if not known(cell):
            raise LeakboundError(f"mass at unknown cell {cell!r}")
        if den is None:
            q = as_fraction(raw)
            num, d = q.numerator, q.denominator
            if scale % d:
                scale = math.lcm(scale, d)
        else:  # a float numerator is refused as a float mass is
            num, d = raw if type(raw) is int else as_fraction(raw), den
        if num < 0:
            raise LeakboundError(f"negative mass {exact_str(Fraction(num, d))} at {cell!r}")
        if num:
            kept.append((cell, num, d))
    clean: dict = {}
    for cell, num, d in kept:
        if d != scale:
            num *= scale // d
        clean[cell] = clean[cell] + num if cell in clean else num
    total = sum(clean.values())
    if total != scale:
        raise LeakboundError(f"masses sum to {exact_str(Fraction(total, scale))}, expected exactly 1")
    return ExactLaw(scale, clean)


def push_forward(mass: Mapping, key: Callable[[Hashable], Hashable]) -> dict:
    """The law of key(cell): masses of cells sharing a key, added up."""
    out: dict = {}
    for cell, q in mass.items():
        k = key(cell)
        out[k] = out.get(k, 0) + q
    return out


class Pmf:
    """A probability mass function over a finite ordered alphabet.

    Masses are exact rationals in [0, 1] summing to exactly 1, given as a
    mapping or an ``ExactLaw``; ``mass`` is the validated ``ExactLaw`` of
    the support, over a denominator that need not be reduced (equality
    and hash compare masses). Instances are immutable after construction
    and safe to share across threads.
    """

    __slots__ = ("alphabet", "mass")

    def __init__(self, alphabet: Iterable[Symbol], mass: Mapping[Symbol, object]):
        alphabet = check_alphabet(alphabet)
        den = mass.den if isinstance(mass, ExactLaw) else None
        clean = exact_law((mass if den is None else mass.nums).items(), set(alphabet).__contains__, den)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "mass", clean)

    @staticmethod
    def from_values(values: Sequence[object], alphabet: Iterable[Symbol] | None = None) -> "Pmf":
        """Build from a dense row of masses aligned with the alphabet."""
        if alphabet is None:
            alphabet = tuple(str(i) for i in range(len(values)))
        alphabet = tuple(alphabet)
        if len(values) != len(alphabet):
            raise LeakboundError(
                f"row has {len(values)} entries for alphabet of size {len(alphabet)}"
            )
        return Pmf(alphabet, dict(zip(alphabet, values)))

    def __setattr__(self, name, value):
        raise AttributeError("Pmf is immutable")

    def __getitem__(self, sym: Symbol) -> Fraction:
        return self.mass.get(sym, ZERO)

    def items(self):
        """(symbol, mass) pairs in alphabet order, including zeros."""
        return [(sym, self.mass.get(sym, ZERO)) for sym in self.alphabet]

    def support(self) -> list[Symbol]:
        return [sym for sym in self.alphabet if sym in self.mass]

    def values(self) -> list[Fraction]:
        return [self.mass.get(sym, ZERO) for sym in self.alphabet]

    def __eq__(self, other):
        if not isinstance(other, Pmf):
            return NotImplemented
        return self.alphabet == other.alphabet and self.mass == other.mass

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.mass.items())))

    def __repr__(self):
        body = ", ".join(f"{s!r}: {q}" for s, q in self.items())
        return f"Pmf({{{body}}})"


class JointPmf(Pmf):
    """An exact joint PMF over X x Y: a ``Pmf`` whose alphabet is the
    (x, y) cells, x-major, so it is validated, looked up and compared as
    one. The two axes are kept to split it into its marginals."""

    __slots__ = ("x_alphabet", "y_alphabet")

    def __init__(
        self,
        x_alphabet: Iterable[Symbol],
        y_alphabet: Iterable[Symbol],
        mass: Mapping[tuple, object],
    ):
        x_alphabet, y_alphabet = tuple(x_alphabet), tuple(y_alphabet)
        super().__init__(product(x_alphabet, y_alphabet), mass)
        object.__setattr__(self, "x_alphabet", x_alphabet)
        object.__setattr__(self, "y_alphabet", y_alphabet)

    def x_marginal(self) -> Pmf:
        return Pmf(self.x_alphabet, ExactLaw(self.mass.den, push_forward(self.mass.nums, itemgetter(0))))

    def y_marginal(self) -> Pmf:
        return Pmf(self.y_alphabet, ExactLaw(self.mass.den, push_forward(self.mass.nums, itemgetter(1))))

    def __repr__(self):
        return f"JointPmf(|X|={len(self.x_alphabet)}, |Y|={len(self.y_alphabet)})"


class DiscreteChannel:
    """A row-stochastic conditional distribution P(y|x) for finite x, y.

    Its law: ``den``, the least common denominator of every mass, and
    ``columns``, mapping each output symbol in some row's support to its
    numerators over ``den``, one per row, in order of first appearance,
    row by row. ``axes`` is the output alphabet as given: ``(Y,)``, or
    ``(X, Y)`` for rows over the (x, y) cells. The input alphabet labels
    the rows, "0", "1", ... by default. ``row`` and ``rows`` build the
    ``Pmf`` (``JointPmf``) rows from the law when asked.
    """

    __slots__ = ("input_alphabet", "axes", "den", "columns")

    def __init__(self, rows: Sequence[Pmf], input_alphabet: Iterable[Symbol] | None = None):
        """The channel of validated rows that share one alphabet."""
        rows = tuple(rows)
        if not rows:
            raise LeakboundError("channel needs at least one row")
        first = rows[0]
        den = math.lcm(*(row.mass.den for row in rows))
        columns, n = {}, len(rows)
        for i, row in enumerate(rows):
            if row.alphabet != first.alphabet:
                raise LeakboundError(f"row {i} has a different output alphabet")
            lift = den // row.mass.den
            for sym, num in row.mass.nums.items():
                columns.setdefault(sym, [0] * n)[i] = num * lift
        axes = (first.x_alphabet, first.y_alphabet) if isinstance(first, JointPmf) else (first.alphabet,)
        self._hold(input_alphabet, n, axes, den, columns)

    @classmethod
    def from_law(cls, den: int, columns: Mapping[Symbol, Sequence[int]],
                 axes: Sequence[Iterable[Symbol]], input_alphabet: Iterable[Symbol]) -> "DiscreteChannel":
        """The channel whose law is ``columns`` over ``den`` (see the
        class), one row per input symbol, checked on integers: every column
        has one entry per row and none negative, every row sums to ``den``,
        and every symbol is on the axes (over two axes, an (x, y) cell).
        All-zero columns are dropped, and ``den`` is reduced by its gcd with
        every entry, so it is the least common denominator of the masses."""
        axes = tuple(map(check_alphabet, axes))
        on = [set(axis) for axis in axes]
        input_alphabet = tuple(input_alphabet)
        n = len(input_alphabet)
        if not n:
            raise LeakboundError("channel needs at least one row")
        if den < 1:
            raise LeakboundError(f"denominator {den} is not positive")
        law = {}
        for sym, col in columns.items():
            if not (sym in on[0] if len(on) == 1 else type(sym) is tuple and len(sym) == 2
                    and sym[0] in on[0] and sym[1] in on[1]):
                raise LeakboundError(f"mass at unknown cell {sym!r}")
            if len(col) != n:
                raise LeakboundError(f"column {sym!r} has {len(col)} entries for {n} rows")
            if min(col) < 0:
                raise LeakboundError(f"negative mass {exact_str(Fraction(min(col), den))} at {sym!r}")
            if any(col):
                law[sym] = col
        for i, total in enumerate(list(map(sum, zip(*law.values()))) or [0] * n):
            if total != den:
                raise LeakboundError(f"row {i} masses sum to {exact_str(Fraction(total, den))}, expected exactly 1")
        return cls.__new__(cls)._hold(input_alphabet, n, axes, den, law)

    def _hold(self, input_alphabet, n: int, axes: tuple, den: int, columns: dict):
        """Keep the law, ``den`` reduced by its gcd with every entry."""
        common = math.gcd(den, *(q for col in columns.values() for q in col))
        columns = {sym: tuple([q // common for q in col] if common > 1 else col)
                   for sym, col in columns.items()}
        den //= common
        if input_alphabet is None:
            input_alphabet = (str(i) for i in range(n))
        input_alphabet = check_alphabet(input_alphabet)
        if len(input_alphabet) != n:
            raise LeakboundError("input alphabet size does not match row count")
        for name, value in zip(self.__slots__, (input_alphabet, axes, den, columns)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def from_rows(cls, raw_rows: Sequence[Sequence[object]],
                  output_alphabet: Iterable[Symbol] | None = None,
                  input_alphabet: Iterable[Symbol] | None = None) -> "DiscreteChannel":
        out = None if output_alphabet is None else tuple(output_alphabet)
        return cls([Pmf.from_values(r, out) for r in raw_rows], input_alphabet)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteChannel is immutable")

    @property
    def n(self) -> int:
        return len(self.input_alphabet)

    @property
    def output_alphabet(self) -> tuple:
        """The output symbols; over two axes the (x, y) cells, x-major."""
        return self.axes[0] if len(self.axes) == 1 else tuple(product(*self.axes))

    def row(self, i: int) -> Pmf:
        """Row i, a ``Pmf`` (a ``JointPmf`` over two axes) handed its
        numerators over ``den`` as an ``ExactLaw``: no ``Fraction`` is
        built per cell."""
        mass = ExactLaw(self.den, {sym: col[i] for sym, col in self.columns.items() if col[i]})
        return Pmf(self.axes[0], mass) if len(self.axes) == 1 else JointPmf(*self.axes, mass)

    @property
    def rows(self) -> tuple[Pmf, ...]:
        return tuple(map(self.row, range(self.n)))

    def __eq__(self, other):
        if not isinstance(other, DiscreteChannel):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        return f"DiscreteChannel(n={self.n}, outputs={len(self.output_alphabet)})"


def tau_max(channel: DiscreteChannel) -> Fraction:
    """Leakage exponent: sum over outputs of the column maximum."""
    return Fraction(sum(map(max, channel.columns.values())), channel.den)


def tau_max2(channel: DiscreteChannel) -> Fraction:
    """Sum over outputs of the column-wise second-largest entry.

    Ties count with multiplicity: the second element of the column sorted
    in descending order. Undefined (raises) for single-row channels.
    """
    if channel.n < 2:
        raise LeakboundError("tau_max2 needs at least two rows")
    return Fraction(sum(sorted(col)[-2] for col in channel.columns.values()), channel.den)


def doeblin(channel: DiscreteChannel) -> Fraction:
    """Doeblin coefficient: sum over outputs of the column minimum."""
    return Fraction(sum(map(min, channel.columns.values())), channel.den)


def _subset_numerator(channel: DiscreteChannel, subset: Iterable[int]) -> int:
    """tau_I of the rows in ``subset``, as a numerator over the law's den."""
    idx = sorted(set(subset))
    if not idx:
        raise LeakboundError("tau_subset needs a non-empty index set")
    for i in idx:
        if not 0 <= i < channel.n:
            raise LeakboundError(f"row index {i} out of range for n={channel.n}")
    return sum(min(col[i] for i in idx) for col in channel.columns.values())


def tau_subset(channel: DiscreteChannel, subset: Iterable[int]) -> Fraction:
    """sum_y min over the selected rows; subset indexes rows from 0."""
    return Fraction(_subset_numerator(channel, subset), channel.den)


def tau_pair(channel: DiscreteChannel) -> Fraction:
    """Sum of tau_I over all two-element row subsets."""
    total = sum(_subset_numerator(channel, p) for p in combinations(range(channel.n), 2))
    return Fraction(total, channel.den)


def tau_trip(channel: DiscreteChannel) -> Fraction:
    """Sum of tau_I over all three-element row subsets."""
    total = sum(_subset_numerator(channel, t) for t in combinations(range(channel.n), 3))
    return Fraction(total, channel.den)


def maximal_leakage(channel: DiscreteChannel) -> float:
    """Natural log of tau_max; the module's only floating-point output.

    Every row counts: the channel is read as conditioned on a
    full-support input, which is the regime where the leakage does not
    depend on the input distribution at all.
    """
    return log_fraction(tau_max(channel))


def total_variation(p: Pmf, q: Pmf) -> Fraction:
    if p.alphabet != q.alphabet:
        raise LeakboundError("total variation needs a shared alphabet")
    return sum((abs(p[y] - q[y]) for y in p.alphabet), ZERO) / 2


@dataclass(frozen=True)
class MeasureSet:
    """All scalar measures of one channel; tau_max2 is None when n = 1."""

    tau: Fraction
    tau_max: Fraction
    tau_max2: Fraction | None
    leakage_log: float


def measure_set(channel: DiscreteChannel) -> MeasureSet:
    return MeasureSet(
        tau=doeblin(channel),
        tau_max=tau_max(channel),
        tau_max2=tau_max2(channel) if channel.n >= 2 else None,
        leakage_log=maximal_leakage(channel),
    )


def make_q_ary_symmetric(q: int, delta) -> DiscreteChannel:
    """q-ary symmetric channel: P(y|x) = 1-delta if y=x else delta/(q-1).

    Its tau_max2 has a closed form. For q >= 3 every column holds
    delta/(q-1) at least twice, so tau_max2 = q*delta/(q-1), which is
    <= 1 exactly when delta <= 1 - 1/q. For q = 2 the column-wise second
    maximum is min(delta, 1-delta), so tau_max2 = 2*min(delta, 1-delta)
    <= 1 at every crossover, with equality only at delta = 1/2.
    """
    delta = as_fraction(delta)
    if q < 2:
        raise LeakboundError("q-ary symmetric channel needs q >= 2")
    if delta < 0 or delta > 1:
        raise LeakboundError(f"crossover {delta} outside [0, 1]")
    alphabet = tuple(str(i) for i in range(q))
    off = delta / (q - 1)
    rows = []
    for x in alphabet:
        rows.append(Pmf(alphabet, {y: (1 - delta if y == x else off) for y in alphabet}))
    return DiscreteChannel(rows, alphabet)


def make_erasure(q: int, eps) -> DiscreteChannel:
    """Erasure channel: P(x|x) = 1-eps, P(e|x) = eps, erasure symbol "e"."""
    eps = as_fraction(eps)
    if q < 1:
        raise LeakboundError("erasure channel needs q >= 1")
    if eps < 0 or eps > 1:
        raise LeakboundError(f"erasure probability {eps} outside [0, 1]")
    inputs = tuple(str(i) for i in range(q))
    outputs = inputs + ("e",)
    rows = []
    for x in inputs:
        rows.append(Pmf(outputs, {x: 1 - eps, "e": eps}))
    return DiscreteChannel(rows, inputs)
