"""Scalar measures: worked values, identities, and random invariants."""

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from helpers import (
    rand_channel,
    rand_pmf,
    reference_doeblin,
    reference_exact_masses,
    reference_tau_max,
    reference_tau_max2,
    reference_tau_subset,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbound import (
    CapacityError,
    Coupling,
    DiscreteChannel,
    JointPmf,
    LeakboundError,
    Pmf,
    PreconditionError,
    build_simultaneous_coupling,
    coupling_penalty,
    doeblin,
    make_erasure,
    make_q_ary_symmetric,
    maximal_coupling_pair,
    maximal_leakage,
    measure_set,
    min_union_coupling,
    min_union_coupling_diag,
    n4_ingredients,
    tau_max,
    tau_max2,
    tau_pair,
    tau_subset,
    tau_trip,
    three_way_coupling,
    total_variation,
)
from leakbound.errors import output_str
from leakbound.measures import ExactLaw, exact_law, format_fraction
import math


def channel(*rows):
    width = len(rows[0])
    return DiscreteChannel.from_rows(rows, [str(i) for i in range(width)])


class TestPmf:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(LeakboundError):
            Pmf.from_values([Q(1, 2), Q(1, 4)])

    def test_negative_mass_rejected(self):
        with pytest.raises(LeakboundError):
            Pmf.from_values([Q(3, 2), Q(-1, 2)])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Pmf.from_values([0.5, 0.5])

    def test_zero_entries_dropped_from_support(self):
        p = Pmf.from_values([Q(1), 0, 0])
        assert p.support() == ["0"]
        assert p["2"] == 0
        assert p.mass == {"0": 1}

    def test_immutable(self):
        p = Pmf.from_values([1])
        with pytest.raises(AttributeError):
            p.alphabet = ("x",)


def _uniform(alphabet):
    return Pmf(alphabet, {"0": Q(1, 2), "1": Q(1, 2)})


# Each builder turns (alphabet, symbol -> mass) into one validated law.
VALIDATED = {
    "Pmf": lambda alphabet, mass: Pmf(alphabet, mass),
    "JointPmf-x": lambda alphabet, mass: JointPmf(
        alphabet, ["y"], {(s, "y"): q for s, q in mass.items()}
    ),
    "JointPmf-y": lambda alphabet, mass: JointPmf(
        ["x"], alphabet, {("x", s): q for s, q in mass.items()}
    ),
    "Coupling": lambda alphabet, mass: Coupling(
        alphabet, 2, {(s, s): q for s, q in mass.items()}, [_uniform(alphabet)] * 2
    ),
}
HALVES = {"0": Q(1, 2), "1": Q(1, 2)}
MASS_FAULTS = {
    "negative": (("0", "1"), {"0": Q(3, 2), "1": Q(-1, 2)}, LeakboundError, "negative"),
    "unknown-cell": (("0", "1"), {"0": Q(1, 2), "2": Q(1, 2)}, LeakboundError, "unknown"),
    "total": (("0", "1"), {"0": Q(1, 2), "1": Q(1, 4)}, LeakboundError, "sum to 3/4"),
    "repeated-symbol": (("0", "1", "0"), HALVES, LeakboundError, "duplicate"),
    "float": (("0", "1"), {"0": 0.5, "1": 0.5}, TypeError, "float"),
}


@pytest.mark.parametrize("fault", MASS_FAULTS)
@pytest.mark.parametrize("kind", VALIDATED)
def test_shared_mass_validation(kind, fault):
    build = VALIDATED[kind]
    build(("0", "1"), HALVES)  # the well-formed law builds
    alphabet, mass, error, message = MASS_FAULTS[fault]
    with pytest.raises(error, match=message):
        build(alphabet, mass)


def test_mass_messages_abbreviate_long_integers():
    # str() of an int of more than 4300 digits raises; the message gives
    # its bit length instead.
    tiny = Q(1, 10**5000)
    with pytest.raises(LeakboundError, match=r"^negative mass -1/<16610-bit integer> at '1'$"):
        Pmf.from_values([1 + tiny, -tiny])
    with pytest.raises(LeakboundError, match=r"^masses sum to <16610-bit integer>/<16610-bit"):
        Pmf.from_values([Q(1, 2), Q(1, 2) + tiny])
    assert str(PreconditionError("c <= 1", 1 + tiny)) == (
        "precondition failed: c <= 1 (got <16610-bit integer>/<16610-bit integer>)"
    )


def test_exact_outputs_refuse_long_integers():
    # An exact output cannot be abbreviated: past 4300 digits it is
    # refused with a CapacityError (the CLI's exit 2) instead.
    assert format_fraction(Q(10**4300 - 1, 2)) == f"{10**4300 - 1}/2"
    assert format_fraction(Q(-2)) == "-2/1"
    assert output_str(Q(-2)) == "-2" and output_str(Q(1, 10**4299)) == f"1/{10**4299}"
    for value in (Q(10**4300, 3), Q(-(10**4300), 3), Q(1, 3 * 10**4300)):
        for write in (format_fraction, output_str):
            with pytest.raises(CapacityError, match=r"^refusing to write -?<\d+-bit integer> "
                                                    r"in an exact output \(limit 4300 digits\)$"):
                write(value)


P_AB = Pmf.from_values([Q(1, 2), Q(1, 2)], "ab")
P_AC = Pmf.from_values([Q(1, 2), Q(1, 2)], "ac")


def _diagonal_joint(xs, ys):
    return JointPmf(xs, ys, {(xs[0], ys[0]): Q(1, 2), (xs[1], ys[1]): Q(1, 2)})


# Every routine that takes a family of PMFs, given one member on another
# alphabet; each leaves the check to DiscreteChannel.
MIXED_FAMILIES = {
    "pair": lambda: maximal_coupling_pair(P_AB, P_AC),
    "three-way": lambda: three_way_coupling(P_AB, P_AB, P_AC),
    "n4_ingredients": lambda: n4_ingredients([P_AB, P_AB, P_AC, P_AB]),
    "lp": lambda: min_union_coupling([P_AB, P_AC]),
    "lp-diag": lambda: min_union_coupling_diag([P_AB, P_AC, P_AB]),
    "simultaneous": lambda: build_simultaneous_coupling(
        [_diagonal_joint("01", "ab"), _diagonal_joint("01", "ac")]
    ),
    "penalty": lambda: coupling_penalty(
        [_diagonal_joint("01", "ab"), _diagonal_joint("02", "ab")]
    ),
    "coupling": lambda: Coupling(
        "ab", 2, {("a", "a"): Q(1, 2), ("b", "b"): Q(1, 2)}, [P_AB, P_AC]
    ),
}


@pytest.mark.parametrize("routine", MIXED_FAMILIES)
def test_family_on_mixed_alphabets_refused(routine):
    with pytest.raises(LeakboundError, match=r"row \d has a different output alphabet"):
        MIXED_FAMILIES[routine]()


def test_coupling_declared_alphabet_must_be_the_marginals():
    with pytest.raises(LeakboundError, match="declared marginal on a different alphabet"):
        Coupling("ac", 2, {("a", "a"): Q(1, 2), ("c", "c"): Q(1, 2)}, [P_AB, P_AB])


class TestChannel:
    def test_rows_must_share_alphabet(self):
        a = Pmf.from_values([1, 0], "ab")
        b = Pmf.from_values([1, 0], "cd")
        with pytest.raises(LeakboundError):
            DiscreteChannel([a, b])

    def test_input_alphabet_size(self):
        a = Pmf.from_values([1, 0], "ab")
        with pytest.raises(LeakboundError):
            DiscreteChannel([a], input_alphabet=["x", "y"])

    @pytest.mark.parametrize("build", [
        lambda: DiscreteChannel([]),
        lambda: DiscreteChannel.from_rows([]),
        lambda: DiscreteChannel.from_rows([], ["a"]),
        lambda: DiscreteChannel.from_law(1, {}, (("a",),), ()),
    ], ids=["rows", "from_rows", "from_rows-alphabet", "from_law"])
    def test_no_rows_refused(self, build):
        with pytest.raises(LeakboundError, match="channel needs at least one row"):
            build()

    def test_law_of_rows(self):
        # den is the least common denominator; the columns hold the union
        # of the supports, in order of first appearance, row by row.
        rows = [Pmf("abc", {"c": Q(1, 2), "a": Q(1, 2)}), Pmf("abc", {"b": Q(1, 3), "a": Q(2, 3)})]
        ch = DiscreteChannel(rows, ["x", "y"])
        assert ch.den == 6 and ch.axes == (("a", "b", "c"),) and ch.n == 2
        assert list(ch.columns.items()) == [("c", (3, 0)), ("a", (3, 4)), ("b", (0, 2))]
        assert ch.rows == tuple(rows) and ch.row(1) == rows[1]
        assert DiscreteChannel.from_law(6, ch.columns, ch.axes, ["x", "y"]) == ch

    def test_law_of_joint_rows(self):
        rows = [JointPmf("01", "ab", {("0", "a"): Q(1, 4), ("1", "b"): Q(3, 4)}),
                JointPmf("01", "ab", {("1", "a"): Q(1)})]
        ch = DiscreteChannel(rows)
        assert ch.axes == (("0", "1"), ("a", "b")) and ch.input_alphabet == ("0", "1")
        assert ch.output_alphabet == (("0", "a"), ("0", "b"), ("1", "a"), ("1", "b"))
        assert all(type(row) is JointPmf for row in ch.rows) and ch.rows == tuple(rows)
        assert ch.rows[0].y_marginal() == rows[0].y_marginal()

    def test_law_reduced_to_least_denominator(self):
        # Inference hands over numerators over the product of the CPT
        # denominators; the channel keeps the least one, so the measures,
        # the rows and equality do not depend on it.
        columns = {"a": (2, 6), "b": (4, 0), "z": (0, 0)}
        small = DiscreteChannel.from_law(3, {"a": (1, 3), "b": (2, 0)}, ["abz"], "xy")
        for scale in (1, 2, 7, 10**30):
            big = DiscreteChannel.from_law(6 * scale, {
                y: tuple(q * scale for q in col) for y, col in columns.items()
            }, ["abz"], "xy")
            assert big == small and big.den == 3 and list(big.columns) == ["a", "b"]
            assert big.rows == small.rows
            assert measure_set(big) == measure_set(small)

    @pytest.mark.parametrize("columns, axes, message", [
        ({"a": (1, -1), "b": (1, 3)}, ["ab"], "negative mass -1/2 at 'a'"),
        ({"a": (1, 0), "b": (0, 1)}, ["ab"], "row 0 masses sum to 1/2, expected exactly 1"),
        ({"a": (1, 2), "b": (1, 1)}, ["ab"], "row 1 masses sum to 3/2, expected exactly 1"),
        ({"a": (2, 2), "c": (0, 0)}, ["ab"], "mass at unknown cell 'c'"),
        ({("0", "a"): (2, 1), ("1", "c"): (0, 1)}, ["01", "ab"], r"mass at unknown cell \('1', 'c'\)"),
        ({"ab": (2, 2)}, ["01", "ab"], "mass at unknown cell 'ab'"),
        ({"a": (2, 2, 0)}, ["ab"], "column 'a' has 3 entries for 2 rows"),
    ], ids=["negative", "row-sum-low", "row-sum-high", "unknown", "unknown-cell",
            "not-a-cell", "column-length"])
    def test_law_refusals(self, columns, axes, message):
        with pytest.raises(LeakboundError, match=f"^{message}$"):
            DiscreteChannel.from_law(2, columns, axes, "xy")

    def test_law_needs_a_positive_denominator(self):
        with pytest.raises(LeakboundError, match="denominator 0 is not positive"):
            DiscreteChannel.from_law(0, {"a": (0,)}, ["ab"], "x")

    def test_rows_over_unreduced_dens_build_the_reduced_law(self):
        # A row keeps the den it was given; the channel of the rows is
        # reduced as from_law reduces, so it equals the channel of the
        # same masses given as Fractions.
        rows = [Pmf("abc", ExactLaw(12, {"a": 6, "b": 6})),
                Pmf("abc", ExactLaw(30, {"c": 10, "a": 20}))]
        same = [Pmf("abc", {"a": Q(1, 2), "b": Q(1, 2)}), Pmf("abc", {"c": Q(1, 3), "a": Q(2, 3)})]
        assert [row.mass.den for row in rows] == [12, 30] and rows == same
        ch = DiscreteChannel(rows, "xy")
        law = DiscreteChannel.from_law(60, {"a": (30, 40), "b": (30, 0), "c": (0, 20)}, ["abc"], "xy")
        assert ch == DiscreteChannel(same, "xy") == law
        assert ch.den == law.den == 6 and list(ch.columns.items()) == list(law.columns.items())
        assert DiscreteChannel([Pmf("ab", ExactLaw(12, {"a": 6, "b": 6}))]).den == 2

    def test_rows_rebuild_the_channel(self):
        rng = random.Random(30)
        for _ in range(40):
            ch = rand_channel(rng, rng.randint(1, 5), rng.randint(1, 6))
            assert DiscreteChannel(ch.rows) == ch
            assert DiscreteChannel(ch.rows, ch.input_alphabet).columns == ch.columns

    def test_pmf_equality_and_hash_ignore_the_den(self):
        base = Pmf("abc", {"a": Q(1, 4), "c": Q(3, 4)})
        for den in (4, 8, 12, 4 * 10**20):
            over = Pmf("abc", ExactLaw(den, {"a": den // 4, "c": 3 * den // 4}))
            assert over == base and hash(over) == hash(base) and over.mass.den == den
            assert repr(over) == repr(base) and repr(over.mass) == repr(base.mass)
        assert repr(base.mass) == "{'a': Fraction(1, 4), 'c': Fraction(3, 4)}"
        assert Pmf("abc", ExactLaw(8, {"a": 3, "c": 5})) != base
        with pytest.raises(LeakboundError, match="^denominator 0 is not positive$"):
            Pmf("abc", ExactLaw(0, {}))


class TestTauMax:
    def test_identical_rows(self):
        assert tau_max(channel([Q(1, 3), Q(2, 3)], [Q(1, 3), Q(2, 3)])) == 1

    def test_disjoint_supports(self):
        assert tau_max(channel([1, 0], [0, 1])) == 2

    def test_binary_symmetric_quarter(self):
        ch = make_q_ary_symmetric(2, Q(1, 4))
        # direct formula q * (1 - delta) for delta <= 1 - 1/q,
        # cross-checked against the column-wise maximum sum
        assert tau_max(ch) == Q(3, 2)
        by_columns = sum(max(row[y] for row in ch.rows) for y in ch.output_alphabet)
        assert by_columns == Q(3, 2)


class TestTauMax2:
    def test_single_row_undefined(self):
        with pytest.raises(LeakboundError):
            tau_max2(channel([1, 0]))

    def test_two_disjoint_rows(self):
        assert tau_max2(channel([1, 0], [0, 1])) == 0

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("eps", [Q(0), Q(1, 3), Q(2, 3), Q(1)])
    def test_erasure_equals_eps(self, q, eps):
        assert tau_max2(make_erasure(q, eps)) == eps

    def test_three_cycle_rows(self):
        ch = channel(
            [Q(1, 2), Q(1, 2), 0], [0, Q(1, 2), Q(1, 2)], [Q(1, 2), 0, Q(1, 2)]
        )
        assert tau_max2(ch) == Q(3, 2)

    def test_ties_count_with_multiplicity(self):
        assert tau_max2(channel([Q(1, 2), Q(1, 2)], [Q(1, 2), Q(1, 2)])) == 1


class TestDoeblin:
    def test_identical_rows(self):
        assert doeblin(channel([Q(1, 4), Q(3, 4)], [Q(1, 4), Q(3, 4)])) == 1

    def test_disjoint_rows(self):
        assert doeblin(channel([1, 0], [0, 1])) == 0

    def test_binary_symmetric_quarter(self):
        assert doeblin(make_q_ary_symmetric(2, Q(1, 4))) == Q(1, 2)


class TestTauSubset:
    def test_singleton_is_one(self):
        ch = rand_channel(random.Random(0), 3, 4)
        for i in range(3):
            assert tau_subset(ch, [i]) == 1

    def test_full_set_is_doeblin(self):
        ch = rand_channel(random.Random(1), 4, 3)
        assert tau_subset(ch, range(4)) == doeblin(ch)

    def test_empty_set_rejected(self):
        with pytest.raises(LeakboundError):
            tau_subset(channel([1, 0], [0, 1]), [])

    def test_monotone_under_inclusion(self):
        rng = random.Random(2)
        for _ in range(50):
            ch = rand_channel(rng, 4, 3)
            subsets = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
            values = [tau_subset(ch, s) for s in subsets]
            assert values == sorted(values, reverse=True)


def test_max_min_identity_small():
    rng = random.Random(3)
    for _ in range(100):
        ch = rand_channel(rng, 4, rng.choice([2, 3, 4]))
        assert tau_max2(ch) == tau_pair(ch) - 2 * tau_trip(ch) + 3 * doeblin(ch)


class TestMaximalLeakage:
    def test_no_leakage(self):
        assert maximal_leakage(channel([Q(1, 2), Q(1, 2)], [Q(1, 2), Q(1, 2)])) == 0.0

    def test_full_bit(self):
        assert maximal_leakage(channel([1, 0], [0, 1])) == pytest.approx(math.log(2))

    def test_binary_symmetric_quarter(self):
        got = maximal_leakage(make_q_ary_symmetric(2, Q(1, 4)))
        assert got == pytest.approx(math.log(1.5))


class TestSymmetricChannel:
    def test_delta_zero_is_identity(self):
        ch = make_q_ary_symmetric(2, 0)
        assert ch.rows[0]["0"] == 1 and ch.rows[1]["1"] == 1

    def test_uniform_at_boundary(self):
        ch = make_q_ary_symmetric(3, Q(2, 3))
        for row in ch.rows:
            assert set(row.values()) == {Q(1, 3)}

    def test_q4_half(self):
        ch = make_q_ary_symmetric(4, Q(1, 2))
        assert tau_max2(ch) == Q(2, 3)  # q * delta / (q - 1), delta <= 1 - 1/q

    def test_invalid_parameters(self):
        with pytest.raises(LeakboundError):
            make_q_ary_symmetric(1, Q(1, 2))
        with pytest.raises(LeakboundError):
            make_q_ary_symmetric(3, Q(3, 2))


class TestErasureChannel:
    def test_full_erasure_is_constant(self):
        assert tau_max(make_erasure(4, 1)) == 1

    def test_no_erasure_is_identity(self):
        assert tau_max(make_erasure(4, 0)) == 4

    def test_q3_third(self):
        assert tau_max(make_erasure(3, Q(1, 3))) == Q(7, 3)

    def test_invalid_parameters(self):
        with pytest.raises(LeakboundError):
            make_erasure(0, Q(1, 2))
        with pytest.raises(LeakboundError):
            make_erasure(2, 2)

    def test_single_input_allowed(self):
        ch = make_erasure(1, Q(1, 3))
        assert ch.n == 1 and tau_max(ch) == 1


class TestRandomInvariants:
    def test_measure_chain(self):
        rng = random.Random(4)
        for _ in range(120):
            n = rng.choice([2, 3, 4, 5])
            size = rng.choice([2, 3, 4])
            ch = rand_channel(rng, n, size)
            tm, t2, t = tau_max(ch), tau_max2(ch), doeblin(ch)
            assert 0 <= t <= 1 <= tm <= n
            assert t <= t2 <= tm
            assert tm + (n - 1) * t <= n

    def test_tau_max_one_iff_identical_rows(self):
        rng = random.Random(5)
        for _ in range(60):
            ch = rand_channel(rng, 3, 3)
            identical = all(r == ch.rows[0] for r in ch.rows)
            assert (tau_max(ch) == 1) == identical

    def test_permutation_invariance(self):
        rng = random.Random(6)
        for _ in range(40):
            ch = rand_channel(rng, 4, 3)
            rows = list(ch.rows)
            rng.shuffle(rows)
            permuted = DiscreteChannel(rows)
            assert tau_max(permuted) == tau_max(ch)
            assert tau_max2(permuted) == tau_max2(ch)
            assert doeblin(permuted) == doeblin(ch)
            # permuting output columns
            perm = list(range(3))
            rng.shuffle(perm)
            cols = DiscreteChannel(
                [
                    Pmf.from_values([r.values()[k] for k in perm])
                    for r in ch.rows
                ]
            )
            assert tau_max(cols) == tau_max(ch)
            assert tau_max2(cols) == tau_max2(ch)
            assert doeblin(cols) == doeblin(ch)

    def test_two_row_total_variation_identities(self):
        rng = random.Random(7)
        for _ in range(60):
            p = rand_pmf(rng, 4)
            q = rand_pmf(rng, 4)
            ch = DiscreteChannel([p, q])
            tv = total_variation(p, q)
            assert tau_max(ch) == 1 + tv
            assert tau_max2(ch) == 1 - tv
            assert doeblin(ch) == 1 - tv


def test_measure_set_single_row():
    ms = measure_set(channel([Q(1, 2), Q(1, 2)]))
    assert ms.tau_max2 is None
    assert ms.tau == ms.tau_max == 1


@st.composite
def exact_channels(draw):
    """1-4 rows over 1-5 symbols: rows with zero entries and ties (small
    weights, or a row repeating an earlier one permuted), rows with
    disjoint supports, or entries over denominators up to 10**6 with the
    rest of the row's mass on its last support symbol."""
    n, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["small", "ties", "disjoint", "coprime"]))
    alphabet = tuple(str(k) for k in range(size))
    rows = []
    for i in range(n):
        if kind == "ties" and rows and draw(st.booleans()):
            base, perm = draw(st.sampled_from(rows)), draw(st.permutations(alphabet))
            rows.append(Pmf(alphabet, dict(zip(perm, base.values()))))
            continue
        if kind == "disjoint" and alphabet[i::n]:
            support = list(alphabet[i::n])
        else:
            support = draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True))
        k = len(support)
        if kind == "coprime":
            masses = []
            for _ in range(k - 1):
                den = draw(st.integers(1, 10**6))
                masses.append(Q(draw(st.integers(0, den // k)), den))
            masses.append(1 - sum(masses, Q(0)))
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
            masses = [Q(w, sum(weights)) for w in weights]
        rows.append(Pmf(alphabet, dict(zip(support, masses))))
    return DiscreteChannel(rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(exact_channels())
def test_measures_match_fraction_reference(ch):
    assert tau_max(ch) == reference_tau_max(ch)
    assert doeblin(ch) == reference_doeblin(ch)
    if ch.n >= 2:
        assert tau_max2(ch) == reference_tau_max2(ch)
    subsets = [s for r in range(1, ch.n + 1) for s in combinations(range(ch.n), r)]
    for subset in subsets:
        assert tau_subset(ch, subset) == reference_tau_subset(ch, subset)
    for size, total in ((2, tau_pair(ch)), (3, tau_trip(ch))):
        want = sum((reference_tau_subset(ch, s) for s in subsets if len(s) == size), Q(0))
        assert total == want


CELLS = ("a", "b", "c")


@st.composite
def mass_lists(draw):
    """(cell, mass) lists: a law on CELLS, its masses possibly split
    across repeated cells, then possibly one fault: an unknown cell, a
    negative mass, a total other than 1, or a float."""
    support = draw(st.lists(st.sampled_from(CELLS), min_size=1, unique=True))
    masses = []
    for _ in support[:-1]:
        den = draw(st.sampled_from([4, 7, 10, 97, 10007, 999983]))
        masses.append(Q(draw(st.integers(0, den // len(support))), den))
    masses.append(1 - sum(masses, Q(0)))
    pairs = []
    for cell, q in zip(support, masses):
        if draw(st.booleans()):
            part = q * draw(st.sampled_from([Q(0), Q(1, 3), Q(1, 2), Q(1)]))
            pairs += [(cell, part), (cell, q - part)]
        else:
            pairs.append((cell, draw(st.sampled_from([q, str(q)]))))
    fault = draw(st.sampled_from(["none", "unknown", "negative", "total", "float"]))
    at = draw(st.integers(0, len(pairs)))
    if fault == "unknown":
        pairs.insert(at, ("z", Q(0)))
    elif fault == "negative":
        pairs.insert(at, (draw(st.sampled_from(CELLS)), Q(-1, draw(st.integers(1, 10**6)))))
    elif fault == "total":
        pairs.insert(at, (draw(st.sampled_from(CELLS)), Q(1, draw(st.integers(1, 10**6)))))
    elif fault == "float":
        pairs.insert(at, (draw(st.sampled_from(CELLS)), 0.5))
    return pairs


def _outcome(validate, pairs, *den):
    try:
        return list(validate(pairs, set(CELLS).__contains__, *den).items())
    except (LeakboundError, TypeError) as err:
        return type(err), str(err)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(mass_lists(), st.sampled_from([1, 2, 6, 10**20]))
def test_exact_masses_match_fraction_reference(pairs, spare):
    # exact_law, on the masses as given and on them as integer numerators
    # over a den (``spare`` times their LCM, so not reduced unless spare is
    # 1): the same law in the same order, or the same first refusal with
    # the same message. A float stays a float, and is refused in place.
    want = _outcome(reference_exact_masses, pairs)
    assert _outcome(exact_law, pairs) == want
    den = spare * math.lcm(*(Q(q).denominator for _, q in pairs if type(q) is not float))
    over = [(cell, q if type(q) is float else int(Q(q) * den)) for cell, q in pairs]
    assert _outcome(exact_law, over, den) == want
