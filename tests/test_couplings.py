"""Coupling data type, pair coupling, and the four-way mixture build."""

import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from helpers import (
    ReferenceN4Ingredients,
    alphabet,
    perturbed_masses,
    rand_family,
    rand_family_tau_max2_gt1,
    rand_family_tau_max2_le1,
    rand_pmf,
    reference_coupling_marginal_check,
    reference_intersection_violations,
    reference_interval_parts,
    reference_mass,
    reference_mixture,
    reference_n4_ingredients,
    reference_n4_mixture,
    reference_n4_mixture_weights,
    refuse_pmf,
    three_way_by_duplication,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbound import (
    ConstructionError,
    Coupling,
    DiscreteChannel,
    LeakboundError,
    Pmf,
    PreconditionError,
    build_n4_coupling,
    independent_coupling,
    make_q_ary_symmetric,
    maximal_coupling_pair,
    min_union_coupling,
    min_union_coupling_diag,
    n4_condition,
    n4_ingredients,
    tau_max,
    tau_max2,
    tau_pair,
    tau_subset,
    tau_trip,
    three_way_coupling,
    total_variation,
    union_mass,
    verify_intersection_property,
)
from leakbound import couplings, measures
from leakbound.couplings import (
    ANCHOR_PAIRS,
    Mixture,
    FOUR_WAY_CONDITION,
    _interval_parts,
    _mixture,
    complement_pair,
    intersection_violations,
    n4_mixture,
    n4_mixture_weights,
)
from leakbound.measures import ExactLaw, numerators
from leakbound.netfile import parse_pmf_file


def pmf(values, letters=None):
    return Pmf.from_values([Q(v) for v in values], letters or alphabet(len(values)))


# Two frozen regression families with tau_max2 > 1 where the four-way
# condition still holds. The first was found by randomized search (all
# residual normalizers positive, tau > 0); the second is the fully
# degenerate two-disjoint-pairs family sitting exactly on the condition
# boundary.
SEARCHED_FAMILY = [
    pmf(["0", "5/12", "1/2", "1/12"]),
    pmf(["0", "1/3", "2/3", "0"]),
    pmf(["1/4", "1/12", "1/4", "5/12"]),
    pmf(["5/12", "1/3", "1/6", "1/12"]),
]
PAIRED_FAMILY = [
    pmf(["1/2", "1/2", "0", "0"]),
    pmf(["1/2", "1/2", "0", "0"]),
    pmf(["0", "0", "1/2", "1/2"]),
    pmf(["0", "0", "1/2", "1/2"]),
]
FAILING_FAMILY = [
    pmf(["1/16", "5/16", "1/2", "1/8"]),
    pmf(["1/4", "1/8", "5/16", "5/16"]),
    pmf(["5/16", "0", "9/16", "1/8"]),
    pmf(["1/16", "1/4", "11/16", "0"]),
]


class TestCouplingType:
    def test_marginals_checked_exactly(self):
        p = pmf(["1/2", "1/2"])
        q = pmf(["1/4", "3/4"])
        with pytest.raises(LeakboundError):
            Coupling("01", 2, {("0", "0"): Q(1, 2), ("1", "1"): Q(1, 2)}, [p, q])

    def test_mass_must_sum_to_one(self):
        p = pmf(["1/2", "1/2"])
        with pytest.raises(LeakboundError):
            Coupling("01", 2, {("0", "0"): Q(1, 2)}, [p, p])

    def test_negative_mass_rejected(self):
        p = pmf(["1/2", "1/2"])
        bad = {("0", "0"): Q(3, 2), ("1", "1"): Q(1, 2), ("0", "1"): Q(-1)}
        with pytest.raises(LeakboundError):
            Coupling("01", 2, bad, [p, p])

    def test_marginal_message_abbreviates_long_integers(self):
        # str() of an integer past 4300 digits raises ValueError; the
        # mismatch message gives its bit length instead.
        tiny = Q(1, 10**4400)
        p = Pmf.from_values([tiny, 1 - tiny], "01")
        mass = {("0", "0"): tiny, ("1", "1"): 1 - tiny}
        with pytest.raises(LeakboundError) as err:
            Coupling("01", 2, mass, [p, pmf(["1/2", "1/2"])])
        assert str(err.value) == "coordinate 1 marginal at '0' is 1/<14617-bit integer>, declared 1/2"

    def test_marginals_may_be_their_channel(self):
        p, q = pmf(["1/2", "1/2"]), pmf(["1/4", "3/4"])
        mass = {("0", "0"): Q(1, 4), ("0", "1"): Q(1, 4), ("1", "1"): Q(1, 2)}
        coupling = Coupling("01", 2, mass, DiscreteChannel([p, q]))
        assert coupling.mass == Coupling("01", 2, mass, [p, q]).mass
        assert coupling.marginals == (p, q)
        with pytest.raises(LeakboundError, match="need one declared marginal per coordinate"):
            Coupling("01", 3, mass, DiscreteChannel([p, q]))


class TestMixtureAssembler:
    """The assembly rules every closed form goes through: weights, factor
    entries and norms are integer numerators over one denominator."""

    HALF = {"0": 1, "1": 1}
    PRODUCT = (2, [((0,), HALF, 2), ((1,), HALF, 2)])

    def assemble(self, *components):
        uniform = pmf(["1/2", "1/2"])
        return Mixture(DiscreteChannel((uniform, uniform)), _mixture(components, 2)).coupling()

    @pytest.mark.parametrize("skipped", [
        (0, [((0, 1), {"0": 2}, 0)]),
        (1, [((0,), {}, 0), ((1,), {"0": 2}, 2)]),
        (1, [((0, 1), {"0": 0, "1": 0}, 0)]),
    ], ids=["zero-weight", "empty-factor", "all-zero-factor"])
    def test_skipped_component_adds_nothing(self, skipped):
        # Each skipped component has a zero norm: dividing by it would
        # raise ZeroDivisionError.
        got = self.assemble(self.PRODUCT, skipped)
        assert got.mass == independent_coupling([pmf(["1/2", "1/2"])] * 2).mass

    def test_masses_on_one_tuple_add_up(self):
        quarter = (1, [((0,), self.HALF, 2), ((1,), self.HALF, 2)])
        assert self.assemble(quarter, quarter).mass == self.assemble(self.PRODUCT).mass

    def test_negative_factor_entry_raises(self):
        bent = {"0": -1, "1": 5}
        with pytest.raises(ConstructionError, match="negative mass"):
            self.assemble((2, [((0, 1), bent, 4)]))


class TestUnionMass:
    def test_diagonal_of_identical_marginals(self):
        p = pmf(["1/3", "2/3"])
        c = maximal_coupling_pair(p, p)
        assert union_mass(c) == 1

    def test_independent_disjoint_pair(self):
        c = independent_coupling([pmf([1, 0]), pmf([0, 1])])
        assert union_mass(c) == 2

    def test_any_coupling_at_least_tau_max(self):
        rng = random.Random(20)
        for _ in range(30):
            fam = rand_family(rng, rng.choice([2, 3]), rng.choice([2, 3]))
            c = independent_coupling(fam)
            assert union_mass(c) >= tau_max(DiscreteChannel(fam))


class TestMaximalCouplingPair:
    def test_equal_marginals_diagonal(self):
        p = pmf(["1/4", "1/4", "1/2"])
        c = maximal_coupling_pair(p, p)
        assert all(a == b for a, b in c.mass)

    def test_disjoint_supports(self):
        c = maximal_coupling_pair(pmf([1, 0]), pmf([0, 1]))
        assert union_mass(c) == 2

    def test_union_is_one_plus_tv(self):
        rng = random.Random(21)
        for _ in range(40):
            p, q = rand_pmf(rng, 4), rand_pmf(rng, 4)
            c = maximal_coupling_pair(p, q)
            assert union_mass(c) == 1 + total_variation(p, q)

    def test_matches_lp_optimum(self):
        rng = random.Random(22)
        for _ in range(15):
            p, q = rand_pmf(rng, 3), rand_pmf(rng, 3)
            assert union_mass(maximal_coupling_pair(p, q)) == min_union_coupling(
                [p, q]
            ).optimal_value


class TestIngredients:
    def test_residual_normalizers_match_numerators(self):
        # n4_ingredients raises if the inclusion-exclusion pattern breaks;
        # running it over random families is the test.
        rng = random.Random(23)
        for _ in range(60):
            n4_ingredients(rand_family(rng, 4, rng.choice([2, 3, 4, 5])))

    def test_pair_residuals_nonnegative_and_total(self):
        rng = random.Random(24)
        for _ in range(30):
            fam = rand_family(rng, 4, 4)
            ing = n4_ingredients(fam)
            ch = DiscreteChannel(fam)
            for size, measure in ((2, tau_pair), (3, tau_trip)):
                subsets = [s for s in ing.tau_by_subset if len(s) == size]
                assert Q(sum(ing.tau_by_subset[s] for s in subsets), ing.channel.den) == measure(ch)
            for pair, tvals in ing.t.items():
                assert all(v >= 0 for v in tvals.values())
                assert ing.n[pair] == sum(tvals.values())

    def test_max_min_identity(self):
        rng = random.Random(25)
        for _ in range(60):
            fam = rand_family(rng, 4, 3)
            ing, ch = n4_ingredients(fam), DiscreteChannel(fam)
            assert Q(ing.tau_max2 - 3 * ing.tau, ing.channel.den) == tau_pair(ch) - 2 * tau_trip(ch)


@st.composite
def tied_families(draw, m=4):
    """m PMFs on 1-7 symbols over a small denominator, so zero entries and
    equal column entries are common, with one row often copied onto another."""
    size = draw(st.integers(1, 7))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    rows = []
    for _ in range(m):
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=size - 1,
                                    max_size=size - 1)))
        rows.append([Q(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])])
    if draw(st.booleans()):
        src, dst = draw(st.permutations(range(m)))[:2]
        rows[dst] = list(rows[src])
    return [Pmf.from_values(r, alphabet(size)) for r in rows]


@st.composite
def n4_families(draw):
    """Four PMFs: ``tied_families`` or the four-row kinds of
    ``closed_form_families`` (masses over coprime denominators up to 10**6
    among them), often with a symbol outside every support put in at a
    random place of the alphabet."""
    fam = draw(st.one_of(tied_families(), closed_form_families(m=4)))
    if draw(st.booleans()):
        symbols = list(fam[0].alphabet)
        symbols.insert(draw(st.integers(0, len(symbols))), "z")
        fam = [Pmf(symbols, p.mass) for p in fam]
    return fam


def field_items(ing, den=None):
    """Every field of the ``Fraction`` reference ingredients, each mapping
    as its item list, so that the repr fixes values, their types and dict
    insertion order. Given ``den``, every number must be an integer and
    is shown as a ``Fraction`` over ``den``."""
    def items(value):
        if isinstance(value, dict):
            return [(key, items(v)) for key, v in value.items()]
        if isinstance(value, tuple):
            return tuple(items(v) for v in value)
        if isinstance(value, DiscreteChannel):
            return value.rows
        if den is None or isinstance(value, Pmf):
            return value
        assert type(value) is int, value
        return Q(value, den)
    return repr([(f.name, items(getattr(ing, f.name)))
                 for f in dataclasses.fields(ReferenceN4Ingredients)])


def integer_items(ing):
    """``field_items`` of the integer ingredients, over their ``den``."""
    return field_items(ing, ing.channel.den)


class TestIngredientsAgainstReference:
    """The ranked column pass against the quantity-at-a-time reference."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(n4_families())
    def test_every_field_and_order(self, fam):
        ing = n4_ingredients(fam)
        assert integer_items(ing) == field_items(reference_n4_ingredients(fam))
        assert ing.channel == DiscreteChannel(fam)

    def test_outside_symbol_and_coprime_denominators(self):
        # "z" is outside every support and adds no key; the rows'
        # denominators are pairwise coprime, so den is their product.
        fam = [Pmf(("a", "z", "b", "c"), mass) for mass in (
            {"a": Q(5, 7), "b": Q(1, 7), "c": Q(1, 7)},
            {"a": Q(2, 11), "b": Q(8, 11), "c": Q(1, 11)},
            {"a": Q(1, 97), "b": Q(6, 97), "c": Q(90, 97)},
            {"a": Q(1, 10007), "b": Q(5000, 10007), "c": Q(5006, 10007)},
        )]
        ing = n4_ingredients(fam)
        assert ing.channel.den == 7 * 11 * 97 * 10007
        assert list(ing.p_min) == ["a", "b", "c"]
        assert integer_items(ing) == field_items(reference_n4_ingredients(fam))

    @staticmethod
    def count(monkeypatch, module, name, counts):
        original = getattr(measures, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting, raising=False)

    def test_no_tau_scans(self, monkeypatch):
        want = field_items(reference_n4_ingredients(SEARCHED_FAMILY))
        counts = Counter()
        for name in ("tau_subset", "tau_max", "tau_max2"):
            for module in (measures, couplings):
                self.count(monkeypatch, module, name, counts)
        assert integer_items(n4_ingredients(SEARCHED_FAMILY)) == want
        assert counts == Counter()

    @staticmethod
    def break_ranks(monkeypatch, edit):
        broken = {order: edit(low) for order, low in couplings.RANKED.items()}
        monkeypatch.setattr(couplings, "RANKED", broken)

    def test_normalizer_mismatch_refused(self, monkeypatch):
        # The full set read at the top rank makes tau = tau_max; the pairs
        # and triples, and so every T, stay right.
        self.break_ranks(monkeypatch, lambda low: low[:10] + (3,))
        with pytest.raises(ConstructionError, match="residual normalizer mismatch"):
            n4_ingredients(SEARCHED_FAMILY)

    def test_negative_pair_residual_refused(self, monkeypatch):
        # Triples read at the top rank: T of the two lowest rows turns
        # negative in the first column that is not constant.
        self.break_ranks(monkeypatch, lambda low: low[:6] + (3, 3, 3, 3) + low[10:])
        with pytest.raises(ConstructionError, match="pair residual T_"):
            n4_ingredients(SEARCHED_FAMILY)


class TestCondition:
    def test_tau_max2_le_one_always_holds(self):
        rng = random.Random(26)
        for _ in range(30):
            fam = rand_family_tau_max2_le1(rng, 4, rng.choice([2, 3, 4, 5]))
            holds, ing = n4_condition(fam)
            assert holds
            assert all(type(v) is int and v >= 0 for v in ing.n.values())

    def test_disjoint_point_masses(self):
        fam = [pmf([1, 0, 0, 0]), pmf([0, 1, 0, 0]), pmf([0, 0, 1, 0]), pmf([0, 0, 0, 1])]
        holds, ing = n4_condition(fam)
        assert holds and ing.tau_max2 == 0 and ing.tau_max == 4 * ing.channel.den

    def test_searched_family_holds_above_one(self):
        holds, ing = n4_condition(SEARCHED_FAMILY)
        assert holds
        assert (ing.channel.den, ing.tau_max2) == (12, 14)
        assert ing.condition_slack() == Q(1, 12)

    def test_paired_family_boundary(self):
        holds, ing = n4_condition(PAIRED_FAMILY)
        assert holds
        assert ing.tau_max2 == 2 * ing.channel.den
        assert ing.condition_slack() == 0

    def test_four_cycle_sits_on_boundary(self):
        # overlapping adjacent pairs still leave exactly enough capacity
        fam = [
            pmf(["1/2", "1/2", "0", "0"]),
            pmf(["0", "1/2", "1/2", "0"]),
            pmf(["0", "0", "1/2", "1/2"]),
            pmf(["1/2", "0", "0", "1/2"]),
        ]
        holds, ing = n4_condition(fam)
        assert ing.tau_max2 == 2 * ing.channel.den
        assert holds and ing.condition_slack() == 0

    def test_frozen_violating_family(self):
        holds, ing = n4_condition(FAILING_FAMILY)
        assert not holds
        assert (ing.channel.den, ing.tau_max2) == (16, 19)
        slack = ing.condition_slack()
        assert type(slack) is Q and slack == Q(-1, 16)


class TestGreedySplit:
    """``n4_mixture_weights`` splits tau_max2 - 1 over the anchored pairs."""

    def test_zero_budget(self):
        fam = rand_family_tau_max2_le1(random.Random(27), 4, 4)
        ing = n4_ingredients(fam)
        weights = n4_mixture_weights(ing)
        assert weights.den == ing.channel.den
        assert all(v == 0 for v in weights.alpha.values())
        assert weights.independent == ing.channel.den - ing.tau_max2

    def test_condition_failure_raises(self):
        with pytest.raises(PreconditionError) as err:
            n4_mixture_weights(n4_ingredients(FAILING_FAMILY))
        assert (err.value.condition, err.value.value) == (FOUR_WAY_CONDITION, Q(-1, 16))

    def test_caps_respected_on_feasible_instances(self):
        for fam in (SEARCHED_FAMILY, PAIRED_FAMILY):
            ing = n4_ingredients(fam)
            weights = n4_mixture_weights(ing)
            for p in ANCHOR_PAIRS:
                assert 0 <= weights.alpha[p] <= min(ing.n[p], ing.n[complement_pair(p)])
            assert all(v >= 0 for v in weights.beta.values())
            assert sum(weights.alpha.values()) == ing.tau_max2 - ing.channel.den
            assert weights.independent == 0


def weights_or_refusal(weigh, ing):
    """The weights' items as ``Fraction``s, fixing values, types and key
    order, or the refusal's (type, condition, value). Integer weights are
    shown over their ``den``."""
    try:
        w = weigh(ing)
    except PreconditionError as err:
        return (PreconditionError, err.condition, err.value)
    den = getattr(w, "den", None)

    def shown(value):
        if den is None:
            return value
        assert type(value) is int, value
        return Q(value, den)

    return repr(([(p, shown(v)) for p, v in w.alpha.items()],
                 [(p, shown(v)) for p, v in w.beta.items()], shown(w.independent)))


class TestMixtureWeightsAgainstReference:
    """The direct greedy split on integers against shares of the budget
    times the budget, on the ``Fraction`` reference ingredients."""

    @staticmethod
    def compare(fam):
        ing = n4_ingredients(fam)
        got = weights_or_refusal(n4_mixture_weights, ing)
        want = weights_or_refusal(reference_n4_mixture_weights, reference_n4_ingredients(fam))
        assert got == want
        return ing, got

    def test_seeded_families(self):
        rng = random.Random(28)
        families = [SEARCHED_FAMILY, FAILING_FAMILY]
        # The three orderings of the paired family put its one nonzero
        # pair capacity on each pairing in turn; the other two are zero.
        families += [[PAIRED_FAMILY[i] for i in order]
                     for order in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 3, 1))]
        for size in (2, 3, 4, 5):
            families += [rand_family_tau_max2_le1(rng, 4, size) for _ in range(8)]
            families += [rand_family_tau_max2_gt1(rng, 4, size) for _ in range(8)]
        seen = Counter()
        for fam in families:
            ing, got = self.compare(fam)
            caps = [min(ing.n[p], ing.n[complement_pair(p)]) for p in ANCHOR_PAIRS]
            refused = isinstance(got, tuple)
            above = (ing.tau_max2 > ing.channel.den) - (ing.tau_max2 < ing.channel.den)
            seen["refused" if refused else above] += 1
            if not refused and above == 1 and 0 in caps:
                seen["zero capacity"] += 1
        assert all(seen[key] for key in (-1, 0, 1, "refused", "zero capacity")), seen

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(n4_families())
    def test_property_families(self, fam):
        self.compare(fam)


class TestBuildN4:
    def check(self, fam):
        coupling = build_n4_coupling(fam)
        ch = DiscreteChannel(fam)
        assert union_mass(coupling) == tau_max(ch)
        assert verify_intersection_property(coupling, fam)
        return coupling

    def test_identical_pmfs_pure_diagonal(self):
        p = pmf(["1/4", "1/4", "1/2"])
        coupling = self.check([p, p, p, p])
        assert all(len(set(t)) == 1 for t in coupling.mass)

    @pytest.mark.parametrize("delta", [Q(0), Q(1, 4), Q(1, 2), Q(3, 4)])
    def test_four_ary_symmetric(self, delta):
        rows = list(make_q_ary_symmetric(4, delta).rows)
        coupling = self.check(rows)
        assert union_mass(coupling) == 4 * (1 - delta)

    def test_searched_regression_family(self):
        coupling = self.check(SEARCHED_FAMILY)
        assert union_mass(coupling) == Q(23, 12)

    def test_paired_regression_family(self):
        coupling = self.check(PAIRED_FAMILY)
        # the construction collapses onto four two-pair tuples
        assert coupling.mass == {
            ("0", "0", "2", "2"): Q(1, 4),
            ("0", "0", "3", "3"): Q(1, 4),
            ("1", "1", "2", "2"): Q(1, 4),
            ("1", "1", "3", "3"): Q(1, 4),
        }

    def test_disjoint_point_masses_single_tuple(self):
        fam = [pmf([1, 0, 0, 0]), pmf([0, 1, 0, 0]), pmf([0, 0, 1, 0]), pmf([0, 0, 0, 1])]
        coupling = self.check(fam)
        assert coupling.mass == {("0", "1", "2", "3"): Q(1)}

    def test_random_tau_max2_le_one_families(self):
        rng = random.Random(28)
        for _ in range(20):
            fam = rand_family_tau_max2_le1(rng, 4, rng.choice([2, 3, 4, 5]))
            self.check(fam)

    def test_condition_failure_raises(self):
        with pytest.raises(PreconditionError):
            build_n4_coupling(FAILING_FAMILY)

    def test_matches_lp_optimum(self):
        rng = random.Random(29)
        for _ in range(8):
            fam = rand_family_tau_max2_le1(rng, 4, 3)
            coupling = build_n4_coupling(fam)
            assert union_mass(coupling) == min_union_coupling(fam).optimal_value

    def test_diagonal_carries_exact_minimum(self):
        rng = random.Random(30)
        for _ in range(15):
            fam = rand_family_tau_max2_le1(rng, 4, 4)
            coupling = build_n4_coupling(fam)
            for y in fam[0].alphabet:
                assert coupling.probability((y,) * 4) == min(p[y] for p in fam)


@st.composite
def sparse_trios(draw):
    """Three PMFs on 2-7 symbols from small integer weights, mostly zero,
    each optionally pulled toward a shared row so that families with
    tau_max2 <= 1 are common."""
    size = draw(st.integers(2, 7))
    weight = st.sampled_from([0, 0, 0, 1, 2, 3])
    base = draw(st.lists(weight, min_size=size, max_size=size).filter(any))
    pull = draw(st.sampled_from([0, 1, 4]))
    rows = []
    for _ in range(3):
        own = draw(st.lists(weight, min_size=size, max_size=size))
        row = [pull * b + o for b, o in zip(base, own)]
        if not any(row):
            row = base
        rows.append(Pmf.from_values([Q(v, sum(row)) for v in row], alphabet(size)))
    return rows


class TestThreeWay:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sparse_trios())
    def test_refuses_with_the_duplicated_four_way(self, fam):
        # The three-way coupling is the interval coupling: it exists
        # exactly when the four-way mixture of (p1, p2, p3, p3) does, with
        # the same union mass, and lists the layout of the Fraction
        # reference.
        try:
            duplicated = three_way_by_duplication(fam)
        except PreconditionError:
            duplicated = None
        if duplicated is None:
            with pytest.raises(PreconditionError) as err:
                three_way_coupling(*fam)
            assert err.value.condition == "tau_max2 <= 1"
            assert err.value.value == tau_max2(DiscreteChannel(fam)) > 1
        else:
            coupling = three_way_coupling(*fam)
            assert coupling.mass == reference_mass(reference_interval_parts(fam), 3)
            assert union_mass(coupling) == union_mass(duplicated)


class TestClosedFormsAgainstPinnedLp:
    """The m = 2, 3, 4 closed forms attain the optimum of the
    diagonal-pinned LP, which is tau_max, with the same pinned diagonal."""

    BUILD = {
        2: lambda fam: maximal_coupling_pair(*fam),
        3: lambda fam: three_way_coupling(*fam),
        4: build_n4_coupling,
    }

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_union_mass_and_diagonal(self, m):
        rng = random.Random(31 + m)
        for _ in range(12):
            size = rng.choice([2, 3, 4, 5])
            if m == 2:
                fam = rand_family(rng, 2, size)
            else:
                fam = rand_family_tau_max2_le1(rng, m, size)
            coupling = self.BUILD[m](fam)
            lp_value = min_union_coupling_diag(fam).optimal_value
            assert union_mass(coupling) == lp_value == tau_max(DiscreteChannel(fam))
            for y in fam[0].alphabet:
                assert coupling.probability((y,) * m) == min(p[y] for p in fam)


class TestIntersectionProperty:
    def test_independent_coupling_generally_fails(self):
        fam = [
            pmf(["1/2", "1/2", "0", "0"]),
            pmf(["1/2", "1/2", "0", "0"]),
            pmf(["0", "0", "1/2", "1/2"]),
            pmf(["1/4", "1/4", "1/4", "1/4"]),
        ]
        coupling = independent_coupling(fam)
        violations = intersection_violations(coupling, fam)
        assert violations  # e.g. P(Y1 = Y2 = "0") = 1/4 != min = 1/2

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 4).flatmap(tied_families))
    def test_independent_against_reference(self, fam):
        coupling = independent_coupling(fam)
        got = intersection_violations(coupling, fam)
        assert got == reference_intersection_violations(coupling, fam)

    @pytest.mark.parametrize("seed", range(6))
    def test_moved_mass_against_reference(self, seed):
        # Swap coordinate 0 between a diagonal tuple u = (y,)*4 and a tuple
        # v with another symbol there and v[1:] != u[1:]: every marginal is
        # kept, and P(all four equal y) drops.
        rng = random.Random(40 + seed)
        while True:
            fam = rand_family_tau_max2_le1(rng, 4, rng.choice([4, 5]))
            mass = dict(build_n4_coupling(fam).mass)
            pairs = [(u, v) for u in mass if len(set(u)) == 1
                     for v in mass if v[0] != u[0] and v[1:] != u[1:]]
            if pairs:
                break
        u, v = pairs[0]
        moved = min(mass[u], mass[v])
        for old, new in ((u, (v[0], *u[1:])), (v, (u[0], *v[1:]))):
            mass[old] -= moved
            mass[new] = mass.get(new, 0) + moved
        coupling = Coupling(fam[0].alphabet, 4, mass, fam)
        got = intersection_violations(coupling, fam)
        assert got and got == reference_intersection_violations(coupling, fam)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 3, 5, 6]).flatmap(
        lambda m: st.one_of(tied_families(m), closed_form_families(m))))
    def test_interval_coupling_has_it(self, fam):
        # Every row holds y on a prefix of y's core, the argmax row on all
        # of it, and only the argmax row holds y outside the core: every
        # subset of two or more rows ties on y with mass min_i P_i(y).
        try:
            coupling = interval_mixture(fam).coupling()
        except PreconditionError:
            assert tau_max2(DiscreteChannel(fam)) > 1
            return
        assert verify_intersection_property(coupling, fam)

    def test_interval_coupling_has_it_on_seeded_families(self):
        rng = random.Random(67)
        for m in (2, 3, 5, 6):
            for size in range(m, m + 3):
                fam = rand_family_tau_max2_le1(rng, m, size)
                assert verify_intersection_property(interval_mixture(fam).coupling(), fam)

    def test_sparse_families_against_reference(self):
        # PMFs of one to three support symbols on alphabets of 4-9, checked
        # against the coupling's own family, the family rotated and another
        # sparse family: symbols tied by the coupling but outside a selected
        # support (want 0, got > 0) and symbols in every selected support
        # that the coupling never ties (want > 0, got 0) both occur.
        rng = random.Random(76)

        def sparse_family(m, size):
            fam = []
            for _ in range(m):
                support = rng.sample(range(size), rng.randint(1, 3))
                weights = [rng.randint(1, 4) for _ in support]
                row = [0] * size
                for k, w in zip(support, weights):
                    row[k] = Q(w, sum(weights))
                fam.append(Pmf.from_values(row, alphabet(size)))
            return fam

        seen = Counter()
        for m in (2, 3, 4, 5):
            for _ in range(12):
                size = rng.randint(4, 9)
                fam = sparse_family(m, size)
                coupled = [independent_coupling(fam)]
                try:
                    mixture = n4_mixture(n4_ingredients(fam)) if m == 4 else interval_mixture(fam)
                    coupled.append(mixture.coupling())
                except PreconditionError:
                    pass
                for coupling in coupled:
                    for pmfs in (fam, fam[1:] + fam[:1], sparse_family(m, size)):
                        got = intersection_violations(coupling, pmfs)
                        assert got == reference_intersection_violations(coupling, pmfs)
                        seen["tied outside a support"] += any(w == 0 < g for _, _, g, w in got)
                        seen["in every support, untied"] += any(g == 0 < w for _, _, g, w in got)
                        seen["passed"] += not got
        assert all(seen[k] for k in ("tied outside a support", "in every support, untied", "passed"))

    def test_sparse_edge_cases(self):
        p, q = pmf(["1/2", "1/2", "0"]), pmf(["0", "1", "0"])
        # The product of p with itself ties "0", which q lacks, and "1".
        coupling = independent_coupling([p, p])
        want = [((0, 1), "0", Q(1, 4), Q(0)), ((0, 1), "1", Q(1, 4), Q(1, 2))]
        for check in (intersection_violations, reference_intersection_violations):
            assert check(coupling, [p, q]) == want
        # A coupling of p with itself that never ties, on symbols in both
        # supports.
        crossed = Coupling(p.alphabet, 2, {("0", "1"): Q(1, 2), ("1", "0"): Q(1, 2)}, [p, p])
        want = [((0, 1), "0", Q(0), Q(1, 2)), ((0, 1), "1", Q(0), Q(1, 2))]
        for check in (intersection_violations, reference_intersection_violations):
            assert check(crossed, [p, p]) == want

    def test_pmfs_on_another_alphabet_refused(self):
        # P(Y1 = Y2 = "2") = 0 under a coupling on "01", but min = 1/2: a
        # check that only scanned the coupling's alphabet would pass it.
        p = pmf(["1/2", "1/2"])
        p2 = pmf(["1/4", "1/4", "1/2"])
        coupling = independent_coupling([p, p])
        for pmfs in ([p2, p2], [p, p2], [pmf(["1/2", "1/2"], "10")] * 2):
            for check in (intersection_violations, verify_intersection_property):
                with pytest.raises(LeakboundError, match="different alphabet"):
                    check(coupling, pmfs)

    def test_pmfs_on_the_same_alphabet_unchanged(self):
        p, q = pmf(["1/2", "1/2"]), pmf(["1/4", "3/4"])
        coupling = independent_coupling([p, p])
        assert intersection_violations(coupling, [p, p]) == [
            ((0, 1), "0", Q(1, 4), Q(1, 2)), ((0, 1), "1", Q(1, 4), Q(1, 2))]
        # PMFs that are not the marginals, on the coupling's alphabet.
        assert intersection_violations(coupling, [q, p]) == [((0, 1), "1", Q(1, 4), Q(1, 2))]
        assert verify_intersection_property(maximal_coupling_pair(p, q), [p, q])

    def test_diagonal_of_identical_pmfs(self):
        p = pmf(["1/3", "2/3"])
        coupling = build_n4_coupling([p, p, p, p])
        assert verify_intersection_property(coupling, [p, p, p, p])

    def test_pairwise_sums_match_tau_subset(self):
        # summing the intersection identity over symbols gives tau_I
        coupling = build_n4_coupling(SEARCHED_FAMILY)
        ch = DiscreteChannel(SEARCHED_FAMILY)
        for subset in [(0, 1), (1, 3), (0, 2, 3), (0, 1, 2, 3)]:
            total = sum(
                q
                for t, q in coupling.mass.items()
                if len({t[i] for i in subset}) == 1
            )
            assert total == tau_subset(ch, subset)


@st.composite
def closed_form_families(draw, m=None):
    """m = 2, 3 or 4 PMFs (``m`` when given) on 1-4 symbols of one kind:
    small weights (zero entries and ties), rows pulled toward a shared row
    (so the three- and four-way conditions often hold), disjoint supports,
    or masses over denominators up to 10**6 with the rest of the row on
    its last support symbol."""
    m, size = m or draw(st.integers(2, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["small", "pulled", "disjoint", "coprime"]))
    symbols = alphabet(size)
    weight = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=size, max_size=size)
    base = draw(weight.filter(any))
    rows = []
    for i in range(m):
        if kind == "coprime":
            support = draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))
            masses = []
            for _ in support[1:]:
                den = draw(st.integers(1, 10**6))
                masses.append(Q(draw(st.integers(0, den // len(support))), den))
            masses.append(1 - sum(masses, Q(0)))
            rows.append(Pmf(symbols, dict(zip(support, masses))))
            continue
        own = draw(weight)
        if kind == "pulled":
            own = [6 * b + o for b, o in zip(base, own)]
        elif kind == "disjoint":
            own = [o if k % m == i else 0 for k, o in enumerate(own)]
        own = own if any(own) else base
        rows.append(Pmf.from_values([Q(w, sum(own)) for w in own], symbols))
    return rows


def interval_mixture(fam) -> Mixture:
    channel = DiscreteChannel(fam)
    return Mixture(channel, (), _interval_parts(channel.den, channel.columns, channel.n)[1])


def listed_or_refused(build, m):
    """The masses a mixture lists, or the type, message and value of its
    refusal."""
    try:
        built = build()
    except LeakboundError as err:
        return type(err).__name__, str(err), getattr(err, "value", None)
    return built.coupling().mass if isinstance(built, Mixture) else reference_mass(built, m)


class TestMixturesAgainstReference:
    """Each closed form's integer parts list the masses, or raise the
    refusal, of its ``Fraction`` reference (``helpers.reference_*``): the
    interval coupling at m = 2, 3, the four-way mixture at m = 4."""

    FORMS = {
        2: (interval_mixture, reference_interval_parts),
        3: (interval_mixture, reference_interval_parts),
        4: (lambda fam: n4_mixture(n4_ingredients(fam)),
            lambda fam: reference_n4_mixture(reference_n4_ingredients(fam))),
    }

    def compare(self, fam):
        form, reference = self.FORMS[len(fam)]
        want = listed_or_refused(lambda: reference(fam), len(fam))
        assert listed_or_refused(lambda: form(fam), len(fam)) == want
        return want

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.one_of(closed_form_families(), n4_families()))
    def test_property_families(self, fam):
        self.compare(fam)

    def test_seeded_builds_and_refusals(self):
        rng = random.Random(66)
        seen = Counter()
        for m in (2, 3, 4):
            for _ in range(20):
                for fam in (rand_family(rng, m, rng.randint(2, 4)),
                            rand_family_tau_max2_le1(rng, m, rng.randint(3, 4))):
                    built = isinstance(self.compare(fam), dict)
                    seen[m, built] += 1
        assert seen[2, True] and seen[3, True] and seen[4, True]
        assert seen[3, False] and seen[4, False]
        assert self.compare(FAILING_FAMILY)[0] == "PreconditionError"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(closed_form_families())
    def test_independent_coupling(self, fam):
        groups = [((i,), dict(p.items()), 1) for i, p in enumerate(fam)]
        want = reference_mass(reference_mixture([(1, groups)]), len(fam))
        assert independent_coupling(fam).mass == want


def checked_or_refused(check, alphabet, arity, mass, marginals):
    """The validated masses in order, or the type and message of the
    refusal."""
    try:
        return list(check(alphabet, arity, mass, marginals).items())
    except LeakboundError as err:
        return type(err).__name__, str(err)


def violations_or_refused(check, coupling, pmfs):
    """The violations, or the type and message of the refusal."""
    try:
        return check(coupling, pmfs)
    except LeakboundError as err:
        return type(err).__name__, str(err)


def on_another_alphabet(p: Pmf) -> Pmf:
    return Pmf([f"{y}*" for y in p.alphabet], {f"{y}*": q for y, q in p.mass.items()})


class TestChecksAgainstReference:
    """``Coupling`` and ``intersection_violations`` check on integers;
    each gives the verdict, the masses or violations and the message of
    its ``Fraction`` reference (``helpers.reference_*``): on the listed
    closed forms, on faulty copies of their masses, and against PMFs that
    are not their marginals (rotated, one or all on another alphabet)."""

    @staticmethod
    def couplings(fam):
        yield independent_coupling(fam)
        m = len(fam)
        try:
            yield (n4_mixture(n4_ingredients(fam)) if m == 4 else interval_mixture(fam)).coupling()
        except PreconditionError:
            pass

    def compare(self, fam):
        m, symbols = len(fam), fam[0].alphabet
        others = [fam[1:] + fam[:1], [on_another_alphabet(fam[0])] + fam[1:],
                  [on_another_alphabet(p) for p in fam]]
        checked = 0
        for coupling in self.couplings(fam):
            faults = perturbed_masses(coupling.mass, product(symbols, repeat=m))
            for mass in (coupling.mass, *faults.values()):
                for marginals in (fam, *others):
                    want = checked_or_refused(reference_coupling_marginal_check,
                                              symbols, m, mass, marginals)
                    got = checked_or_refused(lambda *args: Coupling(*args).mass,
                                             symbols, m, mass, marginals)
                    assert got == want
                    checked += 1
            for pmfs in (fam, *others):
                got = violations_or_refused(intersection_violations, coupling, pmfs)
                assert got == violations_or_refused(reference_intersection_violations,
                                                    coupling, pmfs)
        return checked

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(closed_form_families(), n4_families()))
    def test_property_families(self, fam):
        self.compare(fam)

    def test_seeded_families(self):
        rng = random.Random(71)
        for m in (2, 3, 4):
            for _ in range(8):
                fam = rand_family_tau_max2_le1(rng, m, rng.randint(2, 4))
                assert self.compare(fam) == 2 * 5 * 4


class TestKeptNumerators:
    """Every listed closed form keeps its masses as one ``ExactLaw``, and
    ``Coupling``, ``union_mass`` and ``intersection_violations`` read its
    numerators. On the built couplings and on faulty copies of their
    masses, given as plain ``Fraction`` mappings and as ``ExactLaw``s, each
    gives what its ``Fraction`` reference gives: the same masses in the
    same order, the same union mass, the same violations in the same
    order, or the same refusal."""

    def compare(self, fam):
        m, symbols = len(fam), fam[0].alphabet
        rotated = fam[1:] + fam[:1]
        compared = 0
        for coupling in TestChecksAgainstReference.couplings(fam):
            assert type(coupling.mass) is ExactLaw
            faults = perturbed_masses(dict(coupling.mass), product(symbols, repeat=m))
            for mass in (dict(coupling.mass), *faults.values()):
                for table in (mass, ExactLaw(*numerators(mass))):
                    got = checked_or_refused(lambda *args: Coupling(*args).mass,
                                             symbols, m, table, fam)
                    assert got == checked_or_refused(reference_coupling_marginal_check,
                                                     symbols, m, table, fam)
                    tampered = SimpleNamespace(alphabet=symbols, arity=m, mass=table)
                    union = union_mass(tampered)
                    assert type(union) is Q
                    assert union == sum((q * len(set(t)) for t, q in mass.items()), Q(0))
                    for pmfs in (fam, rotated):
                        got = violations_or_refused(intersection_violations, tampered, pmfs)
                        assert got == violations_or_refused(reference_intersection_violations,
                                                            tampered, pmfs)
                    compared += 1
        return compared

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.one_of(closed_form_families(), n4_families()))
    def test_property_families(self, fam):
        self.compare(fam)

    def test_seeded_families(self):
        rng = random.Random(75)
        for m in (2, 3, 4):
            for _ in range(6):
                fam = rand_family_tau_max2_le1(rng, m, rng.randint(2, 4))
                assert self.compare(fam) == 2 * 5 * 2


def pmf_families():
    """The four-PMF fixture, then seeded families whose PMFs have dens of
    their own."""
    yield parse_pmf_file((Path(__file__).parent / "fixtures" / "pmfs_n4.json").read_text(encoding="utf-8"))
    rng = random.Random(63)
    for size in (2, 3, 5):
        yield [Pmf.from_values(rand_pmf(rng, size).values(), alphabet(size)) for _ in range(4)]
        yield rand_family_tau_max2_le1(rng, 4, size)


def test_pmf_routines_read_the_pmfs_numerators(monkeypatch):
    # A channel of PMFs, its rows and the intersection check read each
    # Pmf's own numerators: no PMF's masses are put over their LCM again.
    for pmfs in pmf_families():
        counts = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is measures._over_lcm.__code__:
                counts["_over_lcm"] += 1

        sys.setprofile(profile)
        try:
            channel = DiscreteChannel(pmfs)
            rows = channel.rows
            try:
                holds = verify_intersection_property(build_n4_coupling(pmfs), pmfs)
            except PreconditionError:
                holds = True
        finally:
            sys.setprofile(None)
        assert counts["_over_lcm"] == 0
        assert rows == tuple(pmfs) and holds
        # The coupling LP reads its right-hand sides off the channel: no
        # marginal is looked up.
        with monkeypatch.context() as patch:
            patch.setattr(Pmf, "__getitem__", refuse_pmf)
            for solve in (min_union_coupling, min_union_coupling_diag):
                result = solve(pmfs)
                assert result.witness.law == channel
                assert result.optimal_value <= union_mass(independent_coupling(pmfs))
