"""The exact LP oracle: solver unit tests and coupling-polytope facts."""

import collections
import contextlib
import fractions
import json
import math
import random
import sys
from fractions import Fraction as Q
from itertools import combinations, product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    alphabet,
    rand_family,
    rand_family_tau_max2_gt1,
    rand_family_tau_max2_le1,
    rand_pmf,
    reference_comonotone,
)

from leakbound import (
    CapacityError,
    DiscreteChannel,
    InfeasibleError,
    LeakboundError,
    Pmf,
    make_q_ary_symmetric,
    min_union_coupling,
    min_union_coupling_diag,
    tau_max,
    tau_max2,
    union_mass,
)
from leakbound import lp
from leakbound.lp import solve_sparse


class TestSimplex:
    """solve_sparse on hand-made systems; a column lists its (row, +-1)
    entries and the solution holds the nonzero components."""

    def test_tiny_known_optimum(self):
        # min x1 + 2 x2  s.t.  x1 + x2 = 1
        value, x = solve_sparse([[(0, 1)], [(0, 1)]], [Q(1), Q(2)], [Q(1)])
        assert value == 1 and x == {0: Q(1)}

    def test_degenerate_equalities(self):
        # x1 + x2 = 1, x2 + x3 = 1, minimize x2 -> x2 = 0, x1 = x3 = 1
        value, x = solve_sparse(
            [[(0, 1)], [(0, 1), (1, 1)], [(1, 1)]],
            [Q(0), Q(1), Q(0)],
            [Q(1), Q(1)],
        )
        assert value == 0 and x == {0: Q(1), 2: Q(1)}

    def test_unbounded_detected(self):
        # no constraints and a negative cost: the ray is unbounded
        with pytest.raises(LeakboundError):
            solve_sparse([[]], [Q(-1)], [])

    def test_infeasible_detected(self):
        # x1 = 1 and x1 = 0 cannot both hold with one variable
        with pytest.raises(InfeasibleError):
            solve_sparse([[(0, 1), (1, 1)]], [Q(1)], [Q(1), Q(0)])

    def test_redundant_row_tolerated(self):
        value, x = solve_sparse(
            [[(0, 1), (1, 1)], [(0, 1), (1, 1)]], [Q(2), Q(1)], [Q(1), Q(1)]
        )
        assert value == 1 and x == {1: Q(1)}


def row_reduce(rows):
    """Pivot columns and reduced row echelon form of Fraction rows."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows


def vertex_enumeration_lp(columns, costs, rhs):
    """min costs . x over {A x = rhs, x >= 0} by enumerating every basis:
    the minimum over the feasible basic solutions, or None when there is
    none. Pivot-free, so it does not share a line with solve_sparse.
    Needs a bounded polytope (the systems below have a total-mass row)."""
    dense = [[Q(0)] * len(columns) for _ in rhs]
    for j, col in enumerate(columns):
        for r, s in col:
            dense[r][j] = Q(s)
    k = len(row_reduce(dense)[0])
    best = None
    for subset in combinations(range(len(columns)), k):
        pivots, reduced = row_reduce([[row[j] for j in subset] + [b]
                                      for row, b in zip(dense, rhs)])
        if pivots != list(range(k)):
            continue  # a singular basis, or rhs outside its span
        x = [reduced[i][k] for i in range(k)]
        if min(x) >= 0:
            value = sum((costs[j] * v for j, v in zip(subset, x)), Q(0))
            best = value if best is None else min(best, value)
    return best


@st.composite
def bounded_pm1_systems(draw):
    """At most 4 rows and 8 columns of entries in {-1, 0, +1}; row 0 is
    all ones (total mass), so the feasible region is bounded."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 8))
    columns = [
        [(0, 1)] + [(r, s) for r in range(1, n_rows)
                    for s in [draw(st.sampled_from([-1, 0, 1]))] if s]
        for _ in range(n_cols)
    ]
    frac = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    costs = draw(st.lists(frac, min_size=n_cols, max_size=n_cols))
    rhs = draw(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=6),
                        min_size=n_rows, max_size=n_rows))
    return columns, costs, rhs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bounded_pm1_systems())
def test_solver_matches_vertex_enumeration(system):
    columns, costs, rhs = system
    want = vertex_enumeration_lp(columns, costs, rhs)
    if want is None:
        with pytest.raises(InfeasibleError):
            solve_sparse(columns, costs, rhs)
        return
    value, x = solve_sparse(columns, costs, rhs)
    assert value == want
    assert sum((costs[j] * v for j, v in x.items()), Q(0)) == value
    for r, b in enumerate(rhs):
        assert sum((s * x.get(j, 0) for j, col in enumerate(columns)
                    for row, s in col if row == r), Q(0)) == b



class SplitPricer:
    """The pricer protocol in miniature: the even ids are listed, the odd
    ids (of integer cost) are priced by a scan over integer duals, and the
    walk lists every column's product with the row vector."""

    def __init__(self, columns, costs):
        self.all = list(zip(range(len(columns)), columns, costs))
        self.width = len(columns)
        self.ids = list(range(0, self.width, 2))

    def price(self, y, den, phase1):
        best = None
        for j, col, cost in self.all[1::2]:
            r = (0 if phase1 else cost * den) - sum(s * y[row] for row, s in col)
            if r < 0 and (best is None or (r, j) < best[:2]):
                best = (r, j, col, cost)
        return best

    def walk(self, v):
        return ((j, sum(s * v[row] for row, s in col), cost) for j, col, cost in self.all)

    def build(self, j):
        return self.all[j][1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bounded_pm1_systems())
def test_pricer_gives_the_pivots_of_the_listed_lp(system):
    # Listed costs with denominators scale the duals handed to the
    # pricer; a wrong scale picks other entering columns.
    columns, costs, rhs = system
    costs = [c if j % 2 == 0 else Q(round(c)) for j, c in enumerate(costs)]
    pricer = SplitPricer(columns, costs)
    try:
        want = solve_sparse(columns, costs, rhs)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_sparse(columns[::2], costs[::2], rhs, pricer)
        return
    assert solve_sparse(columns[::2], costs[::2], rhs, pricer) == want



LOOP_FUNCTIONS = {"optimize", "entering", "pivot", "_pivot", "duals", "_pivot_duals", "dot",
                  "walk", "build", "cost", "gains", "column", "decode", "tuple_id",
                  "price", "consider", "_deviate", "_staircase", "_comonotone_start"}


@pytest.mark.parametrize("listed", [False, True])
def test_pivot_loop_does_no_fraction_arithmetic(listed):
    # Fractions are read when the input is scaled and built for the
    # output; no call into the fractions module comes from the pivots,
    # pricing, ratio test or objective.
    fam = rand_family(random.Random(20), 2, 20)
    from_loop = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_filename != fractions.__file__:
            return
        caller = frame.f_back
        while caller and caller.f_code.co_filename == fractions.__file__:
            caller = caller.f_back
        while caller and caller.f_code.co_filename != lp.__file__:
            caller = caller.f_back
        if caller and caller.f_code.co_name in LOOP_FUNCTIONS:
            from_loop.append((caller.f_code.co_name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        if listed:
            solve_sparse(*full_coupling_lp(fam, floor=True))
        else:
            min_union_coupling_diag(fam)
    finally:
        sys.setprofile(None)
    assert from_loop == []


class TestMinUnionCoupling:
    def test_equal_pair_is_diagonal(self):
        p = Pmf.from_values([Q(1, 3), Q(2, 3)])
        result = min_union_coupling([p, p])
        assert result.optimal_value == 1
        assert result.achieves_tau_max
        assert set(result.witness.mass) == {("0", "0"), ("1", "1")}

    def test_three_cycle_strictly_above_tau_max(self):
        p = Pmf.from_values([Q(1, 2), Q(1, 2), 0], "abc")
        q = Pmf.from_values([0, Q(1, 2), Q(1, 2)], "abc")
        r = Pmf.from_values([Q(1, 2), 0, Q(1, 2)], "abc")
        assert tau_max2(DiscreteChannel([p, q, r])) == Q(3, 2)
        result = min_union_coupling([p, q, r])
        assert result.optimal_value == 2  # frozen from the exact solve
        assert result.optimal_value > Q(3, 2) == tau_max(DiscreteChannel([p, q, r]))
        assert not result.achieves_tau_max

    def test_three_ary_symmetric_half_achieves(self):
        rows = list(make_q_ary_symmetric(3, Q(1, 2)).rows)
        result = min_union_coupling(rows)
        assert result.achieves_tau_max
        assert result.optimal_value == Q(3, 2)

    def test_optimum_at_least_tau_max(self):
        rng = random.Random(10)
        for _ in range(25):
            m = rng.choice([2, 3])
            fam = rand_family(rng, m, rng.choice([2, 3]))
            result = min_union_coupling(fam)
            assert result.optimal_value >= tau_max(DiscreteChannel(fam))
            assert union_mass(result.witness) == result.optimal_value

    def test_capacity_guard(self):
        fam = [rand_pmf(random.Random(11), 4) for _ in range(3)]
        with pytest.raises(CapacityError):
            min_union_coupling(fam, max_variables=10)

    def test_deterministic_value_and_witness(self):
        rng = random.Random(12)
        fam = rand_family(rng, 3, 3)
        a = min_union_coupling(fam)
        b = min_union_coupling(fam)
        assert a.optimal_value == b.optimal_value
        assert a.witness.mass == b.witness.mass


class TestDiagonalFloor:
    def test_identical_marginals_pure_diagonal(self):
        p = Pmf.from_values([Q(1, 4), Q(3, 4)])
        result = min_union_coupling_diag([p, p, p])
        assert result.optimal_value == 1
        assert all(len(set(t)) == 1 for t in result.witness.mass)

    def test_diagonal_pinned_to_minimum(self):
        rng = random.Random(13)
        for _ in range(15):
            fam = rand_family_tau_max2_le1(rng, 3, 3)
            witness = min_union_coupling_diag(fam).witness
            for y in fam[0].alphabet:
                assert witness.probability((y, y, y)) == min(p[y] for p in fam)

    def test_matches_unconstrained_when_tau_max2_le_1(self):
        rng = random.Random(14)
        for _ in range(15):
            m = rng.choice([2, 3])
            fam = rand_family_tau_max2_le1(rng, m, rng.choice([2, 3]))
            plain = min_union_coupling(fam)
            diag = min_union_coupling_diag(fam)
            assert plain.achieves_tau_max
            assert diag.optimal_value == plain.optimal_value

    def test_floor_never_below_plain(self):
        rng = random.Random(15)
        for _ in range(15):
            fam = rand_family(rng, 3, 3)
            plain = min_union_coupling(fam)
            diag = min_union_coupling_diag(fam)
            assert diag.optimal_value >= plain.optimal_value


class TestFloatCrossCheck:
    """Sanity net: the exact optimum should agree with an independent
    floating-point solver to within solver tolerance. The exact value is
    authoritative; this only guards against a systematically wrong
    simplex."""

    def test_against_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        rng = random.Random(17)
        for _ in range(10):
            m = rng.choice([2, 3])
            size = rng.choice([2, 3])
            fam = rand_family(rng, m, size)
            exact = min_union_coupling(fam).optimal_value

            from itertools import product as iproduct

            tuples = list(iproduct(fam[0].alphabet, repeat=m))
            costs = [float(len(set(t))) for t in tuples]
            rows = []
            rhs = []
            for i in range(m):
                for y in fam[i].alphabet:
                    rows.append([1.0 if t[i] == y else 0.0 for t in tuples])
                    rhs.append(float(fam[i][y]))
            res = scipy_opt.linprog(
                costs, A_eq=np.array(rows), b_eq=np.array(rhs), method="highs"
            )
            assert res.success
            assert abs(res.fun - float(exact)) < 1e-8


def test_relaxed_four_family_equality():
    # When the four-way pair-capacity condition holds, the LP optimum
    # matches tau_max even above the tau_max2 <= 1 threshold, because the
    # explicit mixture witnesses it.
    from leakbound import build_n4_coupling, n4_condition

    rng = random.Random(18)
    found = 0
    trials = 0
    while found < 6 and trials < 6000:
        trials += 1
        fam = rand_family(rng, 4, rng.choice([3, 4]))
        holds, ing = n4_condition(fam)
        if not holds or ing.tau_max2 <= 1:
            continue
        found += 1
        result = min_union_coupling(fam)
        assert result.achieves_tau_max
        assert union_mass(build_n4_coupling(fam)) == result.optimal_value
    assert found >= 3


def test_m3_equality_iff_tau_max2_le1():
    # Sufficiency and necessity at three marginals: equality with tau_max
    # holds exactly on the tau_max2 <= 1 side.
    rng = random.Random(16)
    for _ in range(20):
        fam = rand_family_tau_max2_le1(rng, 3, rng.choice([2, 3, 4]))
        assert min_union_coupling(fam).achieves_tau_max
    for _ in range(20):
        fam = rand_family_tau_max2_gt1(rng, 3, rng.choice([3, 4]))
        result = min_union_coupling(fam)
        assert result.optimal_value > tau_max(DiscreteChannel(fam))


# The coupling LP written out in full, as the reference for the generated
# columns: every m-tuple of alphabet positions in lexicographic order (its
# list position is its column id), then the floor slacks.
def full_coupling_lp(fam, floor):
    m, size = len(fam), len(fam[0].alphabet)
    n_marg = 1 + m * (size - 1)
    columns, costs = [], []
    for t in iproduct(range(size), repeat=m):
        col = [(0, 1)] + [(1 + i * (size - 1) + k, 1)
                          for i, k in enumerate(t) if k < size - 1]
        if floor and len(set(t)) == 1:
            col.append((n_marg + t[0], 1))
        columns.append(col)
        costs.append(Q(len(set(t))))
    rhs = [Q(1)] + [p[y] for p in fam for y in p.alphabet[:-1]]
    if floor:
        columns += [[(n_marg + k, -1)] for k in range(size)]
        costs += [Q(0)] * size
        rhs += [min(p[y] for p in fam) for y in fam[0].alphabet]
    return columns, costs, rhs


def library_start(fam, floor):
    """The start basis that ``min_union_coupling[_diag]`` hands
    ``solve_sparse``, as column ids of ``full_coupling_lp``'s listing."""
    m = len(fam)
    channel = DiscreteChannel(fam)
    cols = [channel.columns.get(y, (0,) * m) for y in channel.output_alphabet]
    return [sum(k * len(cols) ** (m - 1 - i) for i, k in enumerate(t))
            for t in lp._comonotone_start(cols, m, floor)]


def reference_lp(fam, floor):
    """(optimal value, witness mass) of the fully listed LP, solved from
    the library's start basis."""
    columns, costs, rhs = full_coupling_lp(fam, floor)
    value, x = solve_sparse(columns, costs, rhs, start=library_start(fam, floor))
    tuples = list(iproduct(fam[0].alphabet, repeat=len(fam)))
    return value, {tuples[j]: v for j, v in x.items() if j < len(tuples)}


def dual_certificate(columns, costs, rhs):
    """A vector y with A^T y <= c that maximizes b . y: the dual of the
    listed LP in standard form, y = y+ - y- plus one slack per primal
    column, solved by ``solve_sparse``."""
    n = len(rhs)
    rows = [[] for _ in range(n)]
    for j, col in enumerate(columns):
        for r, sign in col:
            rows[r].append((j, sign))
    dual_columns = (
        rows
        + [[(j, -sign) for j, sign in row] for row in rows]
        + [[(j, 1)] for j in range(len(columns))]
    )
    dual_costs = [-b for b in rhs] + list(rhs) + [Q(0)] * len(columns)
    _, z = solve_sparse(dual_columns, dual_costs, costs)
    return [z.get(r, 0) - z.get(n + r, 0) for r in range(n)]


def certificate_families():
    rng = random.Random(47)
    cases = []
    for m, size in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
        cases += [rand_family_tau_max2_le1(rng, m, size) for _ in range(2)]
        cases += [rand_family(rng, m, size) for _ in range(2)]
    return cases


@pytest.mark.parametrize("floor", [False, True])
def test_exact_dual_certificate(floor):
    # Weak duality: any y with A^T y <= c gives b . y <= c . x for every
    # feasible x, so b . y equal to the reported optimum proves it optimal,
    # whichever pivots produced y. Every one of the |Y|^m tuple columns
    # (and every slack) is checked, not only those the pricer visited.
    solver = min_union_coupling_diag if floor else min_union_coupling
    above = 0
    for fam in certificate_families():
        m, size = len(fam), len(fam[0].alphabet)
        columns, costs, rhs = full_coupling_lp(fam, floor)
        assert len(columns) == size**m + (size if floor else 0)
        y = dual_certificate(columns, costs, rhs)
        for col, cost in zip(columns, costs):
            assert sum(sign * y[r] for r, sign in col) <= cost
        result = solver(fam)
        assert sum(b * v for b, v in zip(rhs, y)) == result.optimal_value
        # The witness is a coupling (marginals checked on construction)
        # of that cost, and keeps the floor: it is primal feasible.
        assert union_mass(result.witness) == result.optimal_value
        for s in fam[0].alphabet if floor else ():
            assert result.witness.probability((s,) * m) >= min(p[s] for p in fam)
        above += result.optimal_value > tau_max(DiscreteChannel(fam))
    assert above >= 1


def scan(space):
    """Every real column of the coupling LP built in full, as (id, column,
    cost) in id order: the tuples lexicographically, then the slacks."""
    for j, t in enumerate(iproduct(range(space.size), repeat=space.m)):
        yield j, space.column(t), len(set(t))
    if space.floor is not None:
        for k in range(space.size):
            yield space.n_tuples + k, [(space.floor + k, -1)], 0


def brute_price(space, y, phase1):
    """(most negative reduced cost, lowest id attaining it) over every
    real column, or None when no reduced cost is negative."""
    best = None
    for j, col, cost in scan(space):
        r = (Q(0) if phase1 else cost) - sum(s * y[row] for row, s in col)
        if r < 0 and (best is None or (r, j) < best):
            best = (r, j)
    return best


def subset_price(space, y, phase1):
    """What solve_sparse sees: the listed columns scanned, plus the
    subset pricer's best unlisted column."""
    best = None
    for j, col, cost in zip(space.ids, space.columns, space.costs):
        r = (Q(0) if phase1 else cost) - sum(s * y[row] for row, s in col)
        if r < 0 and (best is None or (r, j) < best):
            best = (r, j)
    # The pricer takes the duals as integer numerators over one den.
    den = math.lcm(1, *(v.denominator for v in y))
    found = space.price([int(v * den) for v in y], den, phase1)
    if found is not None:
        r, j, col, cost = found
        t = space.decode(j)
        r = Q(r, den)
        assert col == space.column(t) and cost == len(set(t))
        assert r == (Q(0) if phase1 else cost) - sum(s * y[row] for row, s in col)
        if best is None or (r, j) < best:
            best = (r, j)
    return best


def space_and_rows(m, size, floor):
    n_marg = 1 + m * (size - 1)
    space = lp._TupleColumns(m, size, n_marg if floor else None)
    return space, n_marg + (size if floor else 0)


class TestSubsetPricing:
    """The subset pricer against a scan of all |Y|^m tuple columns plus
    the slacks: same most negative reduced cost, same entering id, and
    'no negative column' in both or neither."""

    @pytest.mark.parametrize("floor", [False, True])
    @pytest.mark.parametrize("phase1", [False, True])
    def test_seeded_duals(self, phase1, floor):
        rng = random.Random(41 + 2 * phase1 + floor)
        outcomes = set()
        for m in range(2, 6):
            for size in range(1, 5):
                space, n_rows = space_and_rows(m, size, floor)
                n_marg = 1 + m * (size - 1)
                for _ in range(12):
                    # Few distinct marginal duals, so argmax and deviation
                    # ties are common; floor duals reach below -1, where a
                    # deviation from a constant argmax can beat the diagonal.
                    den = rng.choice([1, 2, 3])
                    y = [Q(rng.randint(-2 * den, 2 * den), den * m)
                         for _ in range(n_marg)]
                    y += [Q(rng.randint(-6, 2), 2) for _ in range(n_rows - n_marg)]
                    want = brute_price(space, y, phase1)
                    assert subset_price(space, y, phase1) == want
                    outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("size, phase1, y, want", [
        # Phase 1: both coordinates prefer symbol 0, so the argmax over Y
        # is the constant (0, 0); the floor duals push both diagonals above
        # the deviations (0, 1) and (1, 0), which tie at -3/2: take id 1.
        (2, True, [Q(1, 2), Q(1), Q(1), Q(-3, 2), Q(-1, 2)], (Q(-3, 2), 1)),
        # Phase 2: S = {0, 1} yields the deviation (1, 0), id 3, at -2; the
        # lossless deviation (0, 2) of S = {0, 2} ties it with id 2, so a
        # deviation whose bound equals the best so far must still be priced.
        # Diagonals and slacks stay at -3/2 or above.
        (3, False, [Q(3), Q(1), Q(1), Q(0), Q(-1), Q(-3, 2), Q(-1, 2), Q(-1, 2)],
         (Q(-2), 2)),
    ])
    def test_tied_deviations_take_lowest_id(self, size, phase1, y, want):
        space, _ = space_and_rows(2, size, floor=True)
        assert brute_price(space, y, phase1) == want
        assert subset_price(space, y, phase1) == want

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_tuple_of_m_distinct_symbols(self, m):
        # Coordinate i gains 2 only at symbol i, so (0, 1, ..., m-1), the
        # one tuple with all m gains, enters at -m; every tuple on fewer
        # symbols stays at -1 or above. Y has m + 1 symbols, so S = Y is
        # not the set of any tuple.
        space, n_rows = space_and_rows(m, m + 1, False)
        y = [Q(0)] * n_rows
        for i in range(m):
            y[space.row(i, i)] = Q(2)
        want = (Q(-m), space.tuple_id(range(m)))
        assert brute_price(space, y, False) == want
        assert subset_price(space, y, False) == want

    @pytest.mark.parametrize("floor", [False, True])
    @pytest.mark.parametrize("m, size", [(2, 24), (3, 9)])
    def test_large_alphabet_few_marginals(self, m, size, floor):
        # 2^|Y| far exceeds |Y|^m here; the pricer only visits the
        # subsets of at most m symbols.
        rng = random.Random(size)
        space, n_rows = space_and_rows(m, size, floor)
        n_marg = 1 + m * (size - 1)
        for phase1 in (False, True):
            for _ in range(3):
                y = [Q(rng.randint(-4, 4), 2 * m) for _ in range(n_marg)]
                y += [Q(rng.randint(-6, 2), 2) for _ in range(n_rows - n_marg)]
                assert subset_price(space, y, phase1) == brute_price(space, y, phase1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_generated_duals(self, data):
        m = data.draw(st.integers(2, 5))
        size = data.draw(st.integers(1, 4))
        floor = data.draw(st.booleans())
        phase1 = data.draw(st.booleans())
        space, n_rows = space_and_rows(m, size, floor)
        dual = st.fractions(min_value=-2, max_value=2, max_denominator=6)
        y = data.draw(st.lists(dual, min_size=n_rows, max_size=n_rows))
        assert subset_price(space, y, phase1) == brute_price(space, y, phase1)


def assert_walk_matches_scan(space, v):
    """The walk against building every column and taking its product with
    v: the same ids in the same order, the same values and costs, the
    same built column, and the same first hit for Bland's rule (at any
    cost unit) and for the drive-out (any nonzero product)."""
    want = [(j, sum(s * v[r] for r, s in col), cost) for j, col, cost in scan(space)]
    assert list(space.walk(v)) == want
    assert [space.build(j) for j, _, _ in want] == [col for _, col, _ in scan(space)]
    for unit in (0, 1, 2, 5):
        first = next((w for w in space.walk(v) if w[2] * unit < w[1]), None)
        assert first == next((w for w in want if w[2] * unit < w[1]), None)
    assert next((w for w in space.walk(v) if w[1]), None) == next(
        (w for w in want if w[1]), None)


class TestPositionWalk:
    """The column-free walk behind Bland's rule and the drive-out against
    the columns built in full."""

    @pytest.mark.parametrize("floor", [False, True])
    def test_seeded_vectors(self, floor):
        rng = random.Random(61 + floor)
        hits = set()
        for m in range(2, 6):
            for size in range(1, 5):
                space, n_rows = space_and_rows(m, size, floor)
                for _ in range(6):
                    # Small integers, as dual numerators or a row of the
                    # basis inverse; zeros are common, so some walks hit
                    # nothing.
                    v = [rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(n_rows)]
                    assert_walk_matches_scan(space, v)
                    hits.add(any(value for _, value, _ in space.walk(v)))
        assert hits == {True, False}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_generated_vectors(self, data):
        m = data.draw(st.integers(2, 5))
        size = data.draw(st.integers(1, 4))
        space, n_rows = space_and_rows(m, size, data.draw(st.booleans()))
        v = data.draw(st.lists(st.integers(-6, 6), min_size=n_rows, max_size=n_rows))
        assert_walk_matches_scan(space, v)


def differential_families():
    rng = random.Random(43)
    cases = []
    for m, size, count in [(2, 2, 4), (2, 3, 4), (2, 4, 4), (3, 2, 4), (3, 3, 4),
                           (3, 4, 4), (4, 2, 3), (4, 3, 3), (4, 4, 2), (5, 2, 2),
                           (5, 3, 2), (5, 4, 1)]:
        for k in range(count):
            couplable = k % 2 == 0 and (size >= m or (m, size) in {(3, 2), (4, 2), (4, 3)})
            fam = (rand_family_tau_max2_le1(rng, m, size) if couplable
                   else rand_family(rng, m, size))
            cases.append(fam)
    return cases


def check_against_full_lp(fam, floor):
    """min_union_coupling[_diag] against solve_sparse on the fully listed
    columns from the same start: identical optimal values, and (since the
    pricer breaks ties as a full scan does) identical witnesses. The
    listing solved from phase 1, with no start, reaches the same value.
    Each witness is a valid coupling whose union mass is the optimum, and
    repeats exactly."""
    solver = min_union_coupling_diag if floor else min_union_coupling
    want_value, want_mass = reference_lp(fam, floor)
    result = solver(fam)
    assert result.optimal_value == want_value
    assert union_mass(result.witness) == want_value
    assert dict(result.witness.mass) == want_mass
    assert solve_sparse(*full_coupling_lp(fam, floor))[0] == want_value
    again = solver(fam)
    assert again.optimal_value == want_value
    assert again.witness.mass == result.witness.mass


@pytest.mark.parametrize("floor", [False, True])
def test_generated_columns_match_full_lp(floor):
    for fam in differential_families():
        check_against_full_lp(fam, floor)


@pytest.mark.parametrize("floor", [False, True])
def test_bench_shapes_match_full_lp(floor):
    # The lp benchmark's shapes, m 4-5 and |Y| 3-4 (81 to 1024 columns),
    # couplable or not.
    rng = random.Random(45 + floor)
    for m, size in [(4, 3), (4, 4), (5, 3), (5, 4)]:
        for couplable in (True, False):
            fam = (rand_family_tau_max2_le1(rng, m, size)
                   if couplable and (size >= m or (m, size) == (4, 3))
                   else rand_family(rng, m, size))
            check_against_full_lp(fam, floor)


@st.composite
def pmf_families(draw):
    """m = 2-5 PMFs on |Y| = 1-4 symbols, each row over a denominator of
    its own, and a drawn number of copies of the first row: zeros, ties
    of cumulative masses and point masses are common."""
    m, size = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rows = []
    for _ in range(m):
        den = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=size - 1,
                                    max_size=size - 1)))
        rows.append([Q(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])])
    copies = draw(st.integers(0, m - 1))
    rows[m - copies:] = [rows[0]] * copies
    return [Pmf.from_values(row, alphabet(size)) for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pmf_families(), st.booleans())
def test_generated_families_match_full_lp(fam, floor):
    check_against_full_lp(fam, floor)


@pytest.mark.parametrize("floor", [False, True])
def test_large_alphabet_matches_full_lp(floor):
    # m = 2 on 20 symbols: 400 tuple columns, 2^20 subsets of Y.
    fam = rand_family(random.Random(20), 2, 20)
    solver = min_union_coupling_diag if floor else min_union_coupling
    result = solver(fam)
    value, _ = reference_lp(fam, floor)
    assert result.optimal_value == value
    assert union_mass(result.witness) == value


def solve_reading_the_start(solver, fam):
    """``solver(fam)`` and the basic solution at its first phase-2
    pricing, read off ``solve_sparse``'s frame as {symbol tuple: mass}
    (a slack or an artificial by its column id): the basis the crash
    pivots reached, after the drive-out, which moves no value."""
    price, seen = lp._TupleColumns.price, []

    def reading(space, y, den, phase1):
        if not seen:
            frame = sys._getframe(1)
            while frame.f_code.co_name != "solve_sparse":
                frame = frame.f_back
            state = frame.f_locals
            scale = state["det"] * state["rhs_den"]
            symbols = fam[0].alphabet
            seen.append({
                (tuple(symbols[k] for k in space.decode(j)) if j < space.n_tuples else j):
                    Q(x, scale)
                for j, x in zip(state["basis"], state["xb"]) if x})
        return price(space, y, den, phase1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp._TupleColumns, "price", reading)
        result = solver(fam)
    return result, seen[0]


def start_families():
    """Seeded families at m = 2-5 and |Y| = 1-4: rows over one
    denominator (cumulative masses tie across rows; zeros are common),
    rows over their own denominators, one row repeated, and point masses
    with and without other rows."""
    rng = random.Random(83)
    cases = []
    for m in range(2, 6):
        for size in range(1, 5):
            point = Pmf.from_values([Q(int(k == size - 1)) for k in range(size)],
                                    alphabet(size))
            cases += [rand_family(rng, m, size) for _ in range(2)]
            cases.append([rand_pmf(rng, size) for _ in range(m)])
            cases.append([rand_pmf(rng, size)] * m)
            cases.append([point] + rand_family(rng, m - 1, size))
            cases.append([point] * m)
    return cases


@pytest.mark.parametrize("floor", [False, True])
def test_start_is_the_comonotone_coupling(floor):
    # Cell for cell, and no basic slack or artificial carries mass: the
    # crash pivots land on the (floor-pinned) comonotone coupling.
    solver = min_union_coupling_diag if floor else min_union_coupling
    for fam in start_families():
        _, start = solve_reading_the_start(solver, fam)
        assert start == reference_comonotone(fam, floor)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pmf_families(), st.booleans())
def test_start_on_generated_families(fam, floor):
    solver = min_union_coupling_diag if floor else min_union_coupling
    _, start = solve_reading_the_start(solver, fam)
    assert start == reference_comonotone(fam, floor)


def coupling_system(fam, floor):
    """The arguments ``min_union_coupling[_diag]`` hands ``solve_sparse``:
    (columns, costs, rhs, pricer, start)."""
    solve, calls = lp.solve_sparse, []

    def spy(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_sparse", spy)
        (min_union_coupling_diag if floor else min_union_coupling)(fam)
    return calls[0]


@pytest.mark.parametrize("floor", [False, True])
@pytest.mark.parametrize("tamper", ["drop", "antitone", "repeat"])
def test_tampered_start_is_refused(floor, tamper):
    # A start that carries no feasible point is a bug, not an infeasible
    # LP: LeakboundError, never InfeasibleError, on the pricer's system
    # and on the listing. "drop" removes (0, 0), which carries mass 1/4 in
    # both forms, so an artificial stays nonzero; "antitone"
    # steps the coordinate of largest cumulative mass first, (0, 0) ->
    # (1, 0) -> (1, 1) (plain) or trades (0, 1) for (1, 0) (pinned), which
    # puts -1/4 on (1, 0); "repeat" hands the first column over and over,
    # so every later one is skipped.
    fam = [Pmf.from_values([Q(1, 2), Q(1, 2)]), Pmf.from_values([Q(1, 4), Q(3, 4)])]
    columns, costs, rhs, pricer, start = coupling_system(fam, floor)
    assert start == ([0, 3, 1] if floor else [0, 1, 3])
    bad = {"drop": start[1:],
           "antitone": [0, 3, 2] if floor else [0, 2, 3],
           "repeat": start[:1] * len(start)}[tamper]
    for system in ((columns, costs, rhs, pricer), full_coupling_lp(fam, floor)):
        with pytest.raises(LeakboundError, match="start basis is infeasible") as refused:
            solve_sparse(*system, start=bad)
        assert not isinstance(refused.value, InfeasibleError)


def counting_walks(monkeypatch):
    """A list that gains one entry per ``_TupleColumns.walk``."""
    walks, walk = [], lp._TupleColumns.walk

    def counting(space, v):
        walks.append(1)
        return walk(space, v)

    monkeypatch.setattr(lp._TupleColumns, "walk", counting)
    return walks


def artificials_left(fam, floor):
    """Rows whose artificial the crash leaves basic (at zero)."""
    m, size = len(fam), len(fam[0].alphabet)
    return 1 + m * (size - 1) + (size if floor else 0) - len(library_start(fam, floor))


# Found by a seeded search over rand_family(random.Random(seed), m, size)
# in both forms: seeds 0-2999 at (m, |Y|) = (5, 3), (4, 3) and (3, 4), and
# 0-1499 at (4, 4). Of those 21,000 solves from the comonotone start, 2
# plain and 11 pinned ones stalled past rows + 4 pivots; the first two of
# each form are kept. rand_family_tau_max2_le1 families (seeds 0-399 at
# (3, 3), (3, 4), (4, 3) and (4, 4)) gave none.
@pytest.mark.parametrize("seed, m, size, floor", [
    (165, 5, 3, False), (807, 4, 4, False), (15, 5, 3, True), (224, 4, 4, True)])
def test_bland_switch_runs_and_matches_reference(monkeypatch, seed, m, size, floor):
    # Bland's rule walks the columns in id order on every pivot. The only
    # other walk is the drive-out, once per artificial the crash leaves
    # (none in the plain form), so more walks than that means Bland's rule
    # ran.
    walks = counting_walks(monkeypatch)
    fam = rand_family(random.Random(seed), m, size)
    result = (min_union_coupling_diag if floor else min_union_coupling)(fam)
    monkeypatch.undo()
    assert len(walks) > artificials_left(fam, floor)
    value, mass = reference_lp(fam, floor)
    assert result.optimal_value == value
    assert dict(result.witness.mass) == mass


def test_drive_out_after_the_pinned_start(monkeypatch):
    # The pinned start drops the constant tuples of the residual
    # staircase, (0, ..., 0) among them, so their artificials stay basic
    # at zero, and the drive-out walks once for each. This family does not
    # stall, so those are all the walks.
    fam = rand_family(random.Random(7), 4, 3)
    walks = counting_walks(monkeypatch)
    result = min_union_coupling_diag(fam)
    monkeypatch.undo()
    assert len(walks) == artificials_left(fam, True) >= 2
    value, mass = reference_lp(fam, True)
    assert result.optimal_value == value
    assert dict(result.witness.mass) == mass


def check_kept_duals_step(columns, costs, rhs, rng, pivots=10):
    """Seeded pivots from the artificial basis, done in Fractions, on the
    solver's integer state rebuilt from the basis: D = |det B|, A = D B^-1,
    x = D rhs_den x_B and, for the phase-1 and the phase-2 costs, y = c_B A
    and z = c_B x. Stepping (y, z) with ``lp._pivot_duals`` from the state
    before each pivot must give the state after it, for pivot entries of
    either sign. Returns the number of pivots checked."""
    m, width = len(rhs), len(columns)
    rhs_den = math.lcm(1, *(b.denominator for b in rhs))
    cost_den = math.lcm(1, *(c.denominator for c in costs))
    basis = list(range(width, width + m))
    binv = [[Q(int(i == k)) for k in range(m)] for i in range(m)]
    det = Q(1)

    def state():
        a = [[det * v for v in row] for row in binv]
        x = [det * rhs_den * sum(v * b for v, b in zip(row, rhs)) for row in binv]
        assert all(v.denominator == 1 for v in x + [v for row in a for v in row])
        kept = {}
        for phase1 in (True, False):
            cb = [int(j >= width) if phase1 else (costs[j] * cost_den if j < width else 0)
                  for j in basis]
            kept[phase1] = ([int(sum(c * row[k] for c, row in zip(cb, a))) for k in range(m)],
                            int(sum(c * v for c, v in zip(cb, x))))
        return [[int(v) for v in row] for row in a], [int(v) for v in x], kept

    checked = 0
    for _ in range(pivots):
        j = rng.choice([j for j in range(width) if j not in basis] or [None])
        if j is None:
            break
        col = [0] * m
        for r, s in columns[j]:
            col[r] += s
        d = [sum(v * e for v, e in zip(row, col)) for row in binv]  # B^-1 a_j
        if not any(d):
            continue
        r = rng.choice([i for i in range(m) if d[i]])
        a, x, before = state()
        old_det, p = int(det), int(det * d[r])
        pivot_row = [v / d[r] for v in binv[r]]
        binv = [pivot_row if i == r else [v - d[i] * w for v, w in zip(binv[i], pivot_row)]
                for i in range(m)]
        det, basis[r] = abs(det * d[r]), j
        after = state()[2]
        for phase1 in (True, False):
            y, z = before[phase1]
            cost = 0 if phase1 else int(costs[j] * cost_den)
            rc = cost * old_det - sum(v * e for v, e in zip(y, col))
            assert lp._pivot_duals(y, z, rc, p, a[r], x[r], old_det) == after[phase1]
        checked += 1
    return checked


def solve_checking_every_pivot(solve, *args):
    """``solve(*args)`` with every kept-duals step checked on the fly: the
    (y, z) a pivot receives, which the previous pivot produced, must equal
    the solver's own rebuild from the basis (``duals`` in the calling
    frame); the solver compares the last pair at each phase end itself.
    Returns (the answer, the number of pivots checked)."""
    step, steps = lp._pivot_duals, []

    def checked(y, z, *rest):
        loop = sys._getframe(1).f_locals
        assert (y, z) == loop["duals"](loop["phase1"])
        steps.append(1)
        return step(y, z, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_pivot_duals", checked)
        return solve(*args), len(steps)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bounded_pm1_systems(), st.randoms(use_true_random=False))
def test_kept_duals_equal_their_rebuild(system, rng):
    columns, costs, rhs = system
    check_kept_duals_step(columns, costs, rhs, rng)
    try:
        answer, _ = solve_checking_every_pivot(solve_sparse, columns, costs, rhs)
    except InfeasibleError:
        return
    assert answer == solve_sparse(columns, costs, rhs)


@pytest.mark.parametrize("floor", [False, True])
def test_kept_duals_equal_their_rebuild_on_coupling_lps(floor):
    rng = random.Random(71 + floor)
    solver = min_union_coupling_diag if floor else min_union_coupling
    stepped = solved = 0
    for fam in differential_families():
        stepped += check_kept_duals_step(*full_coupling_lp(fam, floor), rng)
        try:
            _, pivots = solve_checking_every_pivot(solver, fam)
        except InfeasibleError:
            continue
        solved += pivots > 0
    assert stepped >= 300 and solved >= 20


@pytest.mark.parametrize("drift", ["dual", "objective"])
def test_phase_end_check_catches_drifting_duals(monkeypatch, drift):
    # One wrong step, once: the pivots go on from the wrong pair, and the
    # comparison with the rebuild at the phase end refuses the answer.
    step, calls = lp._pivot_duals, []

    def drifting(*args):
        y, z = step(*args)
        calls.append(1)
        if len(calls) == 1:
            if drift == "dual":
                y = [y[0] + 1] + y[1:]
            else:
                z += 1
        return y, z

    monkeypatch.setattr(lp, "_pivot_duals", drifting)
    fam = rand_family_tau_max2_le1(random.Random(3), 3, 3)
    with pytest.raises(LeakboundError, match="kept duals differ"):
        min_union_coupling(fam)


def exact_div(num, den):
    q, rem = divmod(num, den)
    assert rem == 0, "inexact division"
    return q


def dense_bareiss(binv, xb, det, r, d):
    """The textbook fraction-free step on the whole of [A | x]: row i != r
    becomes (p [A | x]_i - d_i [A | x]_r) / det, then every row and det
    take the sign of p. Returns new lists (A', x', det')."""
    p = d[r]
    rows = [a + [x] for a, x in zip(binv, xb)]
    rows = [row if i == r else [exact_div(p * a - d[i] * b, det) for a, b in zip(row, rows[r])]
            for i, row in enumerate(rows)]
    sign = 1 if p > 0 else -1
    return [[sign * v for v in row[:-1]] for row in rows], [sign * row[-1] for row in rows], abs(p)


def dense_duals(y, z, rc, p, row, x, det):
    """sign(p) (p [y | z] + rc [A_r | x_r]) / det, every entry rescaled."""
    sign = 1 if p > 0 else -1
    full = [exact_div(sign * (p * a + rc * b), det) for a, b in zip(y + [z], row + [x])]
    return full[:-1], full[-1]


def step_kinds(p, det):
    """Which branch of ``lp._pivot`` and ``lp._pivot_duals`` a pivot entry
    p takes at det: the sparse |p| = det step (and its sign, and whether
    det > 1, so that its division is a real one), or the rescale."""
    if abs(p) != det:
        return {"rescale"}
    return {"sparse", "p > 0" if p > 0 else "p < 0"} | ({"det > 1"} if det > 1 else set())


ALL_STEP_KINDS = {(fn, kind) for fn in ("_pivot", "_pivot_duals")
                  for kind in ("sparse", "p > 0", "p < 0", "det > 1", "rescale")}


@contextlib.contextmanager
def checking_dense_steps(seen):
    """A context in which every ``lp._pivot`` and ``lp._pivot_duals`` step
    is compared with the dense step from the same state, and the pivot
    row and the duals handed in must not change under their holder. Adds
    each step's (function, kind) to the Counter ``seen``."""
    pivot, pivot_duals = lp._pivot, lp._pivot_duals

    def checked_pivot(binv, xb, det, r, d):
        want = dense_bareiss(binv, xb, det, r, d)
        prow, held = binv[r], list(binv[r])
        got = pivot(binv, xb, det, r, d)
        assert (binv, xb, got) == want
        assert prow == held
        seen.update(("_pivot", kind) for kind in step_kinds(d[r], det))
        return got

    def checked_duals(y, z, rc, p, row, x, det):
        held = list(y), list(row)
        got = pivot_duals(y, z, rc, p, row, x, det)
        assert got == dense_duals(y, z, rc, p, row, x, det)
        assert (y, row) == held
        seen.update(("_pivot_duals", kind) for kind in step_kinds(p, det))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_pivot", checked_pivot)
        patch.setattr(lp, "_pivot_duals", checked_duals)
        yield


def check_dense_steps(seen, columns, costs, rhs, solve, rng):
    """The seeded pivots of ``check_kept_duals_step`` and then ``solve()``,
    every step checked against the dense one. The ratio test leaves only
    rows with d_r > 0, so the solver hands ``_pivot_duals`` no p < 0 (and
    ``_pivot`` gets one only in the drive-out); the seeded pivots take
    entries of either sign."""
    with checking_dense_steps(seen):
        check_kept_duals_step(columns, costs, rhs, rng)
        try:
            return solve()
        except InfeasibleError:
            return None


@pytest.mark.parametrize("floor", [False, True])
def test_sparse_steps_equal_dense_bareiss_on_coupling_lps(floor):
    # Every pivot of the differential families, both forms: the |p| = det
    # steps touch only the pivot row's nonzeros, so a dropped sign at
    # p = -det or a skipped row shows as a difference from the dense step.
    solver = min_union_coupling_diag if floor else min_union_coupling
    rng = random.Random(73 + floor)
    seen = collections.Counter()
    for fam in differential_families():
        check_dense_steps(seen, *full_coupling_lp(fam, floor), lambda: solver(fam), rng)
    assert set(seen) == ALL_STEP_KINDS, seen


def test_sparse_steps_equal_dense_bareiss_on_pm1_systems():
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bounded_pm1_systems(), st.randoms(use_true_random=False))
    def check(system, rng):
        check_dense_steps(seen, *system, lambda: solve_sparse(*system), rng)

    check()
    assert set(seen) == ALL_STEP_KINDS, seen


GOLDEN = Path(__file__).parent / "fixtures" / "lp_golden.json"


def check_recorded_witness(fam, value, mass, pinned):
    """A recorded witness on its own, in Fractions: positive masses on
    m-tuples with the family's marginals, union mass equal to the recorded
    value and, when pinned, the diagonal at the column minima."""
    m = len(fam)
    mass = {tuple(t): Q(q) for t, q in mass}
    assert min(mass.values()) > 0 and {len(t) for t in mass} == {m}
    for i, p in enumerate(fam):
        for y in p.alphabet:
            assert sum(q for t, q in mass.items() if t[i] == y) == p[y]
    assert sum(q * len(set(t)) for t, q in mass.items()) == Q(value)
    for y in fam[0].alphabet if pinned else ():
        assert mass.get((y,) * m, 0) == min(p[y] for p in fam)


@pytest.mark.parametrize("form", ["plain", "diag"])
def test_frozen_answers_of_the_fraction_solver(form):
    """Optimal values recorded from the solver that pivoted on Fractions
    (commit fe06a6a), before it was replaced by the integer one: the
    differential families, two families per lp-benchmark shape (m 4-5,
    |Y| 3-4) and rand_family(Random(20), 2, 20). Every value repeats
    exactly. The witnesses were re-recorded when the solver began at the
    comonotone start, which reaches another optimal vertex on some cases;
    each must repeat exactly, and is checked on its own as a coupling of
    that value."""
    solver = min_union_coupling_diag if form == "diag" else min_union_coupling
    cases = json.loads(GOLDEN.read_text())
    families = differential_families()
    for case in cases:
        fam = [Pmf.from_values([Q(v) for v in row], case["alphabet"]) for row in case["rows"]]
        if case["name"].startswith("differential/"):
            assert fam == families[int(case["name"].split("/")[1])], case["name"]
        want = case[form]
        check_recorded_witness(fam, want["value"], want["mass"], form == "diag")
        result = solver(fam)
        assert str(result.optimal_value) == want["value"], case["name"]
        got = [[list(t), str(q)] for t, q in sorted(result.witness.mass.items())]
        assert got == want["mass"], case["name"]
    assert sum(c["name"].startswith("differential/") for c in cases) == len(families)
