"""Exact linear programming oracle for minimal-union couplings.

``min_union_coupling`` minimizes, over all couplings of m marginals on a
shared alphabet, the quantity sum_y P(union_i {Y_i = y}). The set-union
objective is linearized by charging each coupling variable (one per
m-tuple of symbols) the number of distinct values in its tuple: a tuple
triggers the event {some Y_i = y} once per distinct y it contains. The
optimum is always >= tau_max of the marginals and equals it whenever
tau_max2 <= 1.

The solver is a two-phase revised simplex over exact ``Fraction``
arithmetic with sparse +-1 columns and an explicitly maintained basis
inverse. Pricing is Dantzig's rule (most negative reduced cost, lowest
column index on ties); whenever the objective stalls for longer than the
constraint count the solver switches permanently to Bland's rule, which
guarantees termination. Both rules and the ratio test (lowest basis id
among minimum ratios) are deterministic, so identical inputs always give
identical optimal values and identical witnesses.

One marginal constraint per coordinate is implied by the others plus the
total-mass constraint, so the last symbol's row of every marginal is
dropped and a single sum-to-one row kept; this makes the system full row
rank. Problem sizes are desk scale (|Y|^m variables); a guard refuses
anything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .couplings import Coupling
from .errors import DEFAULT_MAX_STATES, CapacityError, InfeasibleError, LeakboundError
from .measures import ZERO, DiscreteChannel, Pmf, tau_max

ONE = Fraction(1)

# column: list of (row index, +1/-1) pairs
SparseCol = list


def solve_sparse(
    columns: Sequence[SparseCol],
    costs: Sequence[Fraction],
    rhs: Sequence[Fraction],
) -> tuple[Fraction, dict[int, Fraction]]:
    """Minimize costs . x s.t. (sparse columns) x = rhs, x >= 0.

    Entries of the constraint matrix must be +-1 (all coupling systems
    are). Returns (optimal value, nonzero components of one optimal
    vertex). Raises ``InfeasibleError`` when no nonnegative solution
    exists.
    """
    m = len(rhs)
    n = len(columns)
    for b in rhs:
        if b < 0:
            raise LeakboundError("solve_sparse expects nonnegative right-hand sides")

    binv = [[ONE if i == k else ZERO for k in range(m)] for i in range(m)]
    basis = list(range(n, n + m))  # artificial j <-> row j - n
    xb = [Fraction(b) for b in rhs]

    def direction(col: SparseCol) -> list[Fraction]:
        d = []
        for i in range(m):
            row = binv[i]
            total = ZERO
            for r, s in col:
                total = total + row[r] if s > 0 else total - row[r]
            d.append(total)
        return d

    def reduced_costs(cvec, width: int) -> list[Fraction]:
        y = [ZERO] * m
        for i in range(m):
            cb = cvec[basis[i]]
            if cb:
                row = binv[i]
                for k in range(m):
                    if row[k]:
                        y[k] += cb * row[k]
        out = []
        for j in range(width):
            r = cvec[j]
            for row_idx, s in columns[j]:
                r = r - y[row_idx] if s > 0 else r + y[row_idx]
            out.append(r)
        return out

    def objective(cvec) -> Fraction:
        return sum((cvec[basis[i]] * xb[i] for i in range(m)), ZERO)

    def optimize(cvec, width: int):
        bland = False
        stall = 0
        best = objective(cvec)
        while True:
            reduced = reduced_costs(cvec, width)
            enter = -1
            if bland:
                for j in range(width):
                    if reduced[j] < 0:
                        enter = j
                        break
            else:
                most = ZERO
                for j in range(width):
                    if reduced[j] < most:
                        most = reduced[j]
                        enter = j
            if enter < 0:
                return
            d = direction(columns[enter])
            theta = None
            leave = -1
            for i in range(m):
                if d[i] > 0:
                    ratio = xb[i] / d[i]
                    if (
                        theta is None
                        or ratio < theta
                        or (ratio == theta and basis[i] < basis[leave])
                    ):
                        theta = ratio
                        leave = i
            if leave < 0:
                raise LeakboundError("unbounded LP; coupling polytopes are bounded")
            piv = d[leave]
            inv_piv = 1 / piv
            binv[leave] = [v * inv_piv for v in binv[leave]]
            prow = binv[leave]
            for i in range(m):
                if i != leave and d[i]:
                    f = d[i]
                    binv[i] = [a - f * b for a, b in zip(binv[i], prow)]
            for i in range(m):
                if i != leave:
                    xb[i] -= d[i] * theta
            xb[leave] = theta
            basis[leave] = enter
            now = objective(cvec)
            if now < best:
                best = now
                stall = 0
            else:
                stall += 1
                if stall > m + 4:
                    bland = True

    # Phase 1: artificials cost 1, everything else 0.
    phase1 = [ZERO] * n + [ONE] * m
    columns = list(columns) + [[(i, 1)] for i in range(m)]
    optimize(phase1, n)
    if objective(phase1) != 0:
        raise InfeasibleError(f"phase 1 optimum {objective(phase1)} > 0")

    # Drive zero-valued artificials out of the basis. When no real column
    # can pivot in, the row is redundant; its artificial stays basic at
    # zero with zero phase-2 cost, which exact consistency keeps at zero.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                row = binv[i]
                entry = ZERO
                for r, s in columns[j]:
                    entry = entry + row[r] if s > 0 else entry - row[r]
                if entry:
                    d = direction(columns[j])
                    piv = d[i]
                    inv_piv = 1 / piv
                    binv[i] = [v * inv_piv for v in binv[i]]
                    prow = binv[i]
                    for k in range(m):
                        if k != i and d[k]:
                            binv[k] = [a - d[k] * b for a, b in zip(binv[k], prow)]
                    basis[i] = j
                    break

    phase2 = list(costs) + [ZERO] * m
    optimize(phase2, n)

    solution: dict[int, Fraction] = {}
    for i in range(m):
        if basis[i] < n and xb[i]:
            solution[basis[i]] = xb[i]
    value = sum((costs[j] * v for j, v in solution.items()), ZERO)
    return value, solution


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
    alphabet = marginals[0].alphabet
    for p in marginals:
        if p.alphabet != alphabet:
            raise LeakboundError("marginals must share one output alphabet")
    m = len(marginals)
    size = len(alphabet)

    n_tuples = size**m
    n_vars = n_tuples + (size if diagonal_floor else 0)
    if n_vars > max_variables:
        raise CapacityError(n_vars, max_variables, "LP variables")

    # Rows: one total-mass row, then per coordinate the first size-1
    # symbol constraints (the last is implied), then the diagonal floor.
    def marg_row(i: int, y_idx: int) -> int:
        return 1 + i * (size - 1) + y_idx

    n_marg_rows = 1 + m * (size - 1)
    n_rows = n_marg_rows + (size if diagonal_floor else 0)

    idx = {y: k for k, y in enumerate(alphabet)}
    tuples = list(product(alphabet, repeat=m))  # lexicographic in alphabet order
    columns: list[SparseCol] = []
    costs: list[Fraction] = []
    for t in tuples:
        col: SparseCol = [(0, 1)]
        for i, sym in enumerate(t):
            k = idx[sym]
            if k < size - 1:
                col.append((marg_row(i, k), 1))
        if diagonal_floor and all(sym == t[0] for sym in t):
            col.append((n_marg_rows + idx[t[0]], 1))
        columns.append(col)
        costs.append(Fraction(len(set(t))))
    if diagonal_floor:
        for k in range(size):
            columns.append([(n_marg_rows + k, -1)])
            costs.append(ZERO)

    rhs = [ONE] + [ZERO] * (n_rows - 1)
    for i in range(m):
        for k in range(size - 1):
            rhs[marg_row(i, k)] = marginals[i][alphabet[k]]
    if diagonal_floor:
        for k, y in enumerate(alphabet):
            rhs[n_marg_rows + k] = min(p[y] for p in marginals)

    value, solution = solve_sparse(columns, costs, rhs)
    mass = {tuples[j]: v for j, v in solution.items() if j < n_tuples}
    witness = Coupling(alphabet, m, mass, marginals)
    target = tau_max(DiscreteChannel(marginals))
    return LpResult(
        optimal_value=value,
        witness=witness,
        achieves_tau_max=value == target,
    )


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
    simultaneous construction needs. Raises ``InfeasibleError`` when no
    coupling has a full diagonal.
    """
    return _coupling_lp(marginals, diagonal_floor=True, max_variables=max_variables)
