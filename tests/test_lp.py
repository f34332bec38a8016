"""The exact LP oracle: solver unit tests and coupling-polytope facts."""

import random
from fractions import Fraction as Q

import pytest
from helpers import (
    rand_family,
    rand_family_tau_max2_gt1,
    rand_family_tau_max2_le1,
    rand_pmf,
)

from leakbound import (
    CapacityError,
    DiscreteChannel,
    InfeasibleError,
    Pmf,
    make_q_ary_symmetric,
    min_union_coupling,
    min_union_coupling_diag,
    tau_max,
    tau_max2,
    union_mass,
)
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
        from leakbound import LeakboundError

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
