"""Exact linear programming oracle for minimal-union couplings.

``min_union_coupling`` minimizes, over all couplings of m marginals on a
shared alphabet, the quantity sum_y P(union_i {Y_i = y}). The set-union
objective is linearized by charging each coupling variable (one per
m-tuple of symbols) the number of distinct values in its tuple: a tuple
triggers the event {some Y_i = y} once per distinct y it contains. The
optimum is always >= tau_max of the marginals and equals it whenever
tau_max2 <= 1.

The solver is a two-phase revised simplex with sparse +-1 columns and an
explicit basis inverse, run on integers: ``Fraction`` costs and
right-hand sides come in (scaled once by the LCM of their denominators),
a ``Fraction`` optimum and the solution's integer numerators over one
denominator go out. B^-1 is kept as A / D with an integer matrix A and
D = |det B|, and the basic solution as integer numerators x over D. A
pivot on entry p of the entering column d = A a_j replaces row i != r by
sign(p) (p A_i - d_i A_r) / D, an exact division, A_r by sign(p) A_r,
and D by |p| (Edmonds 1967; Bareiss 1968). When |p| = D, as in most
pivots of the coupling LP, row i becomes A_i - sign(p) d_i A_r / D: only
the rows with d_i != 0 change, and only at A_r's nonzero columns, so
those entries are updated in place and every other row is left as it is.
The dual numerators y = c_B A and the objective z = c_B x take the same
step off the pivot row before it changes: with rc the entering column's
reduced-cost numerator, y' = sign(p) (p y + rc A_r) / D and
z' = sign(p) (p z + rc x_r) / D, which at |p| = D is
y' = y + sign(p) rc A_r / D, changed at A_r's nonzeros only. They are
built from c_B only when a phase starts (so after the drive-out); at
each phase end the kept pair is compared with that build and a
difference raises ``LeakboundError``. Ratios and reduced costs are
compared as integer numerators, cross-multiplied; positive scaling changes
no comparison, so the pivots are those of the simplex on ``Fraction``s.

Pricing is Dantzig's rule (most negative reduced cost, lowest column id
on ties); whenever the objective stalls for longer than the constraint
count the solver switches permanently to Bland's rule (the lowest column
id with a negative reduced cost), which guarantees termination. Both
rules and the ratio test (lowest basis id among minimum ratios) are
deterministic, so identical inputs give identical values and witnesses.

The coupling LP never lists its |Y|^m tuple columns. A tuple's column id
is the tuple of alphabet positions read as a base-|Y| number, so ids run
in lexicographic order; the |Y| slack columns of the diagonal floor come
after them. With duals y_0 (total mass) and y_i(s) (coordinate i takes
symbol s; 0 for the last symbol, whose row is dropped), a tuple's
reduced cost is |set(t)| - y_0 - sum_i y_i(t_i), and because the cost
only counts distinct symbols

    min_t |set(t)| - sum_i y_i(t_i)
        = min_{S != {}, S ⊆ Y} |S| - sum_i max_{s in S} y_i(s).

Each S is grown from S minus its top symbol, so every coordinate's
argmax in S costs one comparison. A tuple has at most m distinct
symbols, so only 2 <= |S| <= m is visited: never more subsets than a
full scan prices tuples. The |Y| diagonal tuples (which carry the floor
rows) and the slacks are listed; for |S| >= 2 a constant argmax tuple is
replaced by the best single-coordinate deviation inside S, so the
subsets price exactly the non-constant tuples. In phase 1 every real
column costs 0, so the entering tuple is each coordinate's argmax over
Y (or its best deviation). Ties go to the lowest symbol position per
coordinate and the lowest tuple id across subsets, so the entering
column, and hence every pivot and the witness, is the one a scan of all
|Y|^m columns would pick.

Bland's rule and the drive-out of zero artificials after phase 1 walk
the tuples in id order, then the slacks, and stop at the first hit. The
walk builds no column: a tuple's product with a row vector v is
v_0 + sum_i v(i, t_i), plus its floor entry when t is constant, read off
the same per-coordinate slices of v as the pricer's gains, and a slack's
is -v(floor + k). Only the entering column is built. The walk may touch
every column, so the variable guard counts |Y|^m. ``_TupleColumns`` is
the pricer that ``solve_sparse`` asks for all of this (its protocol:
``width``, ``ids``, ``price``, ``walk`` and ``build``).

One marginal constraint per coordinate is implied by the others plus the
total-mass constraint, so the last symbol's row of every marginal is
dropped and a single sum-to-one row kept: the system has full row rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterator, Sequence

from .couplings import Coupling
from .errors import DEFAULT_MAX_STATES, CapacityError, InfeasibleError, LeakboundError
from .measures import ZERO, DiscreteChannel, ExactLaw, Pmf, tau_max

ONE = Fraction(1)

# column: list of (row index, +1/-1) pairs
SparseCol = list


def _pivot(binv: list[list[int]], xb: list[int], det: int, r: int, d: list[int]) -> int:
    """Edmonds' fraction-free pivot of (A, x) on entry p = d[r] of the
    entering column d = A a_j, in place; returns the new det |p|.

    Every division by det is exact. When |p| = det, row i becomes
    A_i - sign(p) d_i A_r / det, so only A_r's nonzero columns of the rows
    with d_i != 0 change, in place. Otherwise every row i != r is rebuilt
    as sign(p) (p A_i - d_i A_r) / det. The pivot row is never changed in
    place: when p < 0 it is replaced by its negation."""
    p = d[r]
    sign = 1 if p > 0 else -1
    prow, xr = binv[r], xb[r]
    if sign * p == det:
        nonzero = [(k, a) for k, a in enumerate(prow) if a]
        for i, f in enumerate(d):
            if f and i != r:
                f *= sign
                row = binv[i]
                for k, a in nonzero:
                    row[k] -= f * a // det
                xb[i] -= f * xr // det
    else:
        for i, f in enumerate(d):
            if i != r:
                binv[i] = [sign * (p * a - f * b) // det for a, b in zip(binv[i], prow)]
                xb[i] = sign * (p * xb[i] - f * xr) // det
    if sign < 0:
        binv[r] = [-a for a in prow]
        xb[r] = -xr
    return sign * p


def _pivot_duals(y: list[int], z: int, rc: int, p: int, row: list[int], x: int,
                 det: int) -> tuple[list[int], int]:
    """(y, z) after a pivot on entry p of a column with reduced-cost
    numerator rc, from the pivot row (row, x) of (A, x) before it. When
    |p| = det, y' = y + sign(p) rc row / det at row's nonzeros only, on a
    copy of y; otherwise every entry is rescaled."""
    sign = 1 if p > 0 else -1
    if sign * p == det:
        f = sign * rc
        y = y.copy()
        for k, a in enumerate(row):
            if a:
                y[k] += f * a // det
        return y, z + f * x // det
    return ([sign * (p * a + rc * b) // det for a, b in zip(y, row)],
            sign * (p * z + rc * x) // det)


def solve_sparse(
    columns: Sequence[SparseCol],
    costs: Sequence[Fraction],
    rhs: Sequence[Fraction],
    pricer=None,
) -> tuple[Fraction, ExactLaw]:
    """Minimize costs . x s.t. (sparse columns) x = rhs, x >= 0.

    Entries of the constraint matrix must be +-1 (all coupling systems
    are). Returns (optimal value, nonzero components of one optimal
    vertex, keyed by column id). The components are an ``ExactLaw``: the
    solver's own integer numerators over one denominator, read as
    ``Fraction``s. Raises ``InfeasibleError`` when no nonnegative
    solution exists.

    Without ``pricer`` the columns have ids 0 .. len(columns) - 1 and
    every pivot prices them all. A ``pricer`` adds columns that are never
    listed, all of integer cost. It provides ``width`` (real column ids
    are 0 .. width - 1), ``ids`` (the ids of the listed columns, in list
    order), ``price(y, den, phase1)`` (the unlisted column of most
    negative reduced cost, lowest id on ties, as (reduced cost times
    ``den``, id, column, cost), or None when none is negative; the duals
    are ``y[r] / den`` with integer ``y`` and ``den > 0``, and real
    columns cost 0 in phase 1), ``walk(v)`` (every real column as (id,
    its product with the row vector ``v``, cost), lazily in id order, for
    Bland's rule and the drive-out) and ``build(j)`` (the column of id j).
    """
    m = len(rhs)
    for b in rhs:
        if b < 0:
            raise LeakboundError("solve_sparse expects nonnegative right-hand sides")
    # Scale rhs and costs to integers once; every pivot is then integer.
    rhs_den = lcm(1, *(b.denominator for b in rhs))
    cost_den = lcm(1, *(c.denominator for c in costs))

    ids = pricer.ids if pricer else range(len(columns))
    listed = [(j, col, c.numerator * (cost_den // c.denominator))
              for j, col, c in zip(ids, columns, costs)]
    width = pricer.width if pricer else len(listed)
    # The walk's costs are scaled by cost_den / step.
    if pricer:
        walk, build, step = pricer.walk, pricer.build, cost_den
    else:
        def walk(v: list[int]):
            return ((j, dot(col, v), cost) for j, col, cost in listed)
        build, step = columns.__getitem__, 1

    # B^-1 = binv / det and x_B = xb / (det * rhs_den), with integer binv
    # and xb and det = |det B| > 0; basic costs are scaled by cost_den.
    binv = [[int(i == k) for k in range(m)] for i in range(m)]
    xb = [b.numerator * (rhs_den // b.denominator) for b in rhs]
    det = 1
    basis = list(range(width, width + m))  # artificial width + r <-> row r
    bcost = [0] * m

    def dot(col: SparseCol, vec: list[int]) -> int:
        total = 0
        for r, s in col:
            total = total + vec[r] if s > 0 else total - vec[r]
        return total

    def duals(phase1: bool) -> tuple[list[int], int]:
        """(c_B binv, c_B xb): duals over det, objective over det * rhs_den."""
        cb = [int(j >= width) for j in basis] if phase1 else bcost
        rows = ([c * a for a in row] for c, row in zip(cb, binv) if c)
        return list(map(sum, zip([0] * m, *rows))), sum(c * x for c, x in zip(cb, xb) if c)

    def entering(y: list[int], phase1: bool, bland: bool):
        """(reduced cost numerator, id, column, scaled cost) or None."""
        if bland:
            unit = 0 if phase1 else det * step
            for j, value, cost in walk(y):
                if cost * unit < value:
                    return cost * unit - value, j, build(j), cost * step
            return None
        best = None
        for j, col, cost in listed:
            r = (0 if phase1 else cost * det) - dot(col, y)
            if r < 0 and (best is None or (r, j) < best[:2]):
                best = (r, j, col, cost)
        if pricer:
            found = pricer.price(y, det if phase1 else det * cost_den, phase1)
            if found and (best is None or found[:2] < best[:2]):
                best = found[:3] + (found[3] * step,)
        return best

    def pivot(row: int, d: list[int], j: int, cost: int) -> None:
        """xb is pivoted as one more column of binv."""
        nonlocal det
        det = _pivot(binv, xb, det, row, d)
        basis[row] = j
        bcost[row] = cost

    def optimize(phase1: bool) -> int:
        """Pivot to an optimum of the phase; returns c_B xb."""
        y, z = duals(phase1)
        bland, stall = False, 0
        best, best_det = z, det
        while True:
            enter = entering(y, phase1, bland)
            if enter is None:
                break
            rc, j, col, cost = enter
            d = [dot(col, row) for row in binv]
            leave = -1
            for i in range(m):
                if d[i] > 0:
                    # xb[i] / d[i] against the smallest ratio so far
                    if leave < 0:
                        leave = i
                        continue
                    ours, theirs = xb[i] * d[leave], xb[leave] * d[i]
                    if ours < theirs or (ours == theirs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise LeakboundError("unbounded LP; coupling polytopes are bounded")
            y, z = _pivot_duals(y, z, rc, d[leave], binv[leave], xb[leave], det)
            pivot(leave, d, j, cost)
            if z * best_det < best * det:
                best, best_det = z, det
                stall = 0
            else:
                stall += 1
                if stall > m + 4:
                    bland = True
        if (y, z) != duals(phase1):
            raise LeakboundError("kept duals differ from the basis; the pivots are inexact")
        return z

    # Phase 1: artificials cost 1, everything else 0.
    infeasibility = optimize(phase1=True)
    if infeasibility:
        raise InfeasibleError(f"phase 1 optimum {Fraction(infeasibility, det * rhs_den)} > 0")

    # Drive zero-valued artificials out of the basis. When no real column
    # can pivot in, the row is redundant; its artificial stays basic at
    # zero with zero phase-2 cost, which exact consistency keeps at zero.
    for i in range(m):
        if basis[i] >= width:
            for j, value, cost in walk(binv[i]):
                if value:
                    col = build(j)
                    pivot(i, [dot(col, row) for row in binv], j, cost * step)
                    break

    value = optimize(phase1=False)
    scale = det * rhs_den
    solution = ExactLaw(scale, {basis[i]: xb[i] for i in range(m) if basis[i] < width and xb[i]})
    return Fraction(value, scale * cost_den), solution


class _TupleColumns:
    """The coupling LP's columns, built on demand (see the module doc).

    Rows: 0 is total mass, ``row(i, k)`` says coordinate i takes symbol
    position k < size - 1, and ``floor + k`` (diagonal floor only) holds
    the floor of tuple (k, ..., k). ``columns``/``costs`` list the
    diagonal tuples, then the slacks; ``ids`` are their column ids.
    """

    def __init__(self, m: int, size: int, floor: int | None):
        self.m, self.size, self.floor = m, size, floor
        self.n_tuples = size**m
        self.width = self.n_tuples + (size if floor is not None else 0)
        self.weights = [size ** (m - 1 - i) for i in range(m)]
        step = sum(self.weights)  # id of (1, ..., 1)
        self.ids = [k * step for k in range(size)] + list(range(self.n_tuples, self.width))
        self.columns = [self.build(j) for j in self.ids]
        self.costs = [1] * size + [0] * (self.width - self.n_tuples)

    def row(self, i: int, k: int) -> int:
        return 1 + i * (self.size - 1) + k

    def column(self, t: Sequence[int]) -> SparseCol:
        col = [(0, 1)] + [(self.row(i, k), 1) for i, k in enumerate(t) if k < self.size - 1]
        if self.floor is not None and len(set(t)) == 1:
            col.append((self.floor + t[0], 1))
        return col

    def tuple_id(self, t: Sequence[int]) -> int:
        return sum(k * w for k, w in zip(t, self.weights))

    def decode(self, j: int) -> tuple[int, ...]:
        return tuple(j // w % self.size for w in self.weights)

    def build(self, j: int) -> SparseCol:
        if j >= self.n_tuples:  # a slack
            return [(self.floor + j - self.n_tuples, -1)]
        return self.column(self.decode(j))

    def gains(self, v: list[int]) -> list[list[int]]:
        """v's entries by coordinate and symbol position: row(i, k) for
        k < size - 1, then 0 for the last symbol, whose row is dropped."""
        n = self.size - 1
        return [v[1 + i * n:1 + (i + 1) * n] + [0] for i in range(self.m)]

    def walk(self, v: list[int]) -> Iterator[tuple[int, int, int]]:
        """(id, v . column, cost) of every real column in id order, lazily:
        the tuples lexicographically, then the slacks."""
        floor = self.floor
        tuples = product(range(self.size), repeat=self.m)
        for j, (t, gain) in enumerate(zip(tuples, map(sum, product(*self.gains(v))))):
            cost = len(set(t))
            if cost == 1 and floor is not None:
                gain += v[floor + t[0]]
            yield j, v[0] + gain, cost
        if floor is not None:
            for k in range(self.size):
                yield self.n_tuples + k, -v[floor + k], 0

    def price(self, y: list[int], den: int, phase1: bool):
        """Reduced costs are compared as numerators over ``den``: the
        duals are ``y[r] / den``."""
        m, size = self.m, self.size
        # gain[i][k]: dual of "coordinate i takes symbol k"
        gain = self.gains(y)
        # reduced cost of a tuple with c distinct symbols = limit[c] - gain
        limit = [(0 if phase1 else c * den) - y[0] for c in range(m + 1)]
        best = None

        def consider(t: list[int], mask: int) -> None:
            nonlocal best
            total = sum(g[k] for g, k in zip(gain, t))
            cost = len(set(t))
            if cost == 1:
                # Deviating one coordinate costs 2 and loses gain, so skip
                # S when even a lossless deviation could not enter.
                r = limit[2] - total
                if r >= 0 or (best is not None and r > best[0]):
                    return
                t, total = self._deviate(t[0], mask, gain, total)
                cost = 2
            r = limit[cost] - total
            if r < 0 and (best is None or r <= best[0]):
                j = self.tuple_id(t)
                if best is None or (r, j) < best[:2]:
                    best = (r, j, t, cost)

        if phase1:
            # Every real column costs 0: the per-coordinate argmax over Y
            # (lowest position on ties) has the most gain.
            if size > 1:
                consider([g.index(max(g)) for g in gain], (1 << size) - 1)
        else:
            # Grow each S from S minus its top symbol, so every S costs m
            # comparisons; S above m symbols holds no tuple's symbol set.
            # A singleton is a diagonal tuple, which is listed.
            stack = [([k] * m, 1 << k, k, 1) for k in range(size)]
            while stack:
                arg, mask, top, count = stack.pop()
                for k in range(top + 1, size):
                    t = [a if g[a] >= g[k] else k for g, a in zip(gain, arg)]
                    grown = mask | 1 << k
                    consider(t, grown)
                    if count + 1 < m:
                        stack.append((t, grown, k, count + 1))
        return best and best[:2] + (self.column(best[2]), best[3])

    def _deviate(self, s: int, mask: int, gain, total: int):
        """Best non-constant tuple inside ``mask`` when (s, ..., s) is the
        argmax: move one coordinate to another symbol of the mask, losing
        the least gain, lowest tuple id on ties."""
        best = None
        for i, g in enumerate(gain):
            for k in range(self.size):
                if k != s and mask >> k & 1:
                    key = (g[s] - g[k], (k - s) * self.weights[i])
                    if best is None or key < best[0]:
                        best = (key, i, k)
        (loss, _), i, k = best
        t = [s] * self.m
        t[i] = k
        return t, total - loss


@dataclass(frozen=True)
class LpResult:
    optimal_value: Fraction
    witness: Coupling
    achieves_tau_max: bool


def _coupling_lp(
    marginals: Sequence[Pmf],
    diagonal_floor: bool,
    max_variables: int,
) -> LpResult:
    marginals = tuple(marginals)
    if len(marginals) < 2:
        raise LeakboundError("a coupling needs at least two marginals")
    channel = DiscreteChannel(marginals)
    alphabet = channel.output_alphabet
    m = len(marginals)
    size = len(alphabet)

    # Rows: one total-mass row, then per coordinate the first size-1
    # symbol constraints (the last is implied), then the diagonal floor.
    n_marg_rows = 1 + m * (size - 1)
    space = _TupleColumns(m, size, n_marg_rows if diagonal_floor else None)
    if space.width > max_variables:
        raise CapacityError(space.width, max_variables, "LP variables")

    rhs = [ONE] + [ZERO] * (n_marg_rows - 1)
    for i in range(m):
        for k in range(size - 1):
            rhs[space.row(i, k)] = marginals[i][alphabet[k]]
    if diagonal_floor:
        rhs += [min(p[y] for p in marginals) for y in alphabet]

    value, solution = solve_sparse(space.columns, space.costs, rhs, space)
    nums = {tuple(alphabet[k] for k in space.decode(j)): num
            for j, num in solution.nums.items() if j < space.n_tuples}
    witness = Coupling(alphabet, m, ExactLaw(solution.den, nums), channel)
    return LpResult(optimal_value=value, witness=witness,
                    achieves_tau_max=value == tau_max(channel))


def min_union_coupling(
    marginals: Sequence[Pmf], max_variables: int = DEFAULT_MAX_STATES
) -> LpResult:
    """Exact minimizer of the union mass over the coupling polytope."""
    return _coupling_lp(marginals, diagonal_floor=False, max_variables=max_variables)


def min_union_coupling_diag(
    marginals: Sequence[Pmf], max_variables: int = DEFAULT_MAX_STATES
) -> LpResult:
    """Same LP with the added floor mass(y,...,y) >= min_i P_i(y).

    Since any coupling also satisfies mass(y,...,y) <= min_i P_i(y), the
    floor pins the diagonal exactly; this is the ingredient shape the
    simultaneous construction needs. Such a coupling always exists, so the
    floor never makes the LP infeasible: tie min_i P_i(y) on each
    (y, ..., y) and couple the residuals P_i - min_j P_j independently; at
    each y a row attaining the minimum has residual 0, so no further mass
    lands on (y, ..., y).
    """
    return _coupling_lp(marginals, diagonal_floor=True, max_variables=max_variables)
