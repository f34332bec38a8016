"""Simultaneous couplings: joint preservation and minimal Y-union."""

import dataclasses
import fractions
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction as Q
from math import prod
from pathlib import Path

import pytest
from helpers import (
    perturbed_masses,
    rand_couplable_net,
    rand_family,
    rand_family_tau_max2_gt1,
    rand_family_tau_max2_le1,
    rand_net,
    rand_partition,
    reference_check_mixture,
    reference_coupling_penalty,
    reference_f_quantity,
    reference_intersection_violations,
    reference_interval_parts,
    reference_mass,
    reference_minimal_y_coupling,
    reference_residuals,
    reference_simul_mass,
    reference_simul_validate,
    reference_y_union_mass,
    refuse_pmf,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_couplings import FAILING_FAMILY, PAIRED_FAMILY, SEARCHED_FAMILY

from leakbound import (
    CapacityError,
    ConstructionError,
    Coupling,
    DiscreteChannel,
    JointPmf,
    LeakboundError,
    Pmf,
    PreconditionError,
    build_n4_coupling,
    build_simultaneous_coupling,
    coupling_feasibility,
    coupling_penalty,
    doeblin,
    f_quantity,
    independent_coupling,
    min_union_coupling,
    min_union_coupling_diag,
    minimal_y_coupling,
    tau_max,
    union_mass,
    y_union_mass,
)
from leakbound import bounds, measures, simultaneous
from leakbound.bayesnet import composite_joints
from leakbound.cli import main
from leakbound.couplings import (
    Mixture,
    _interval_parts,
    _list_part,
    _mixture,
    _tuple_part,
    intersection_violations,
    n4_condition,
    n4_ingredients,
    n4_mixture,
)
from leakbound.measures import ExactLaw, numerators, tau_max2
from leakbound.netfile import parse_network, parse_pmf_file
from leakbound.simultaneous import _check_mixture


def rand_joint(rng, x_size, y_size, den=None):
    den = den or rng.choice((8, 12, 16))
    cells = [(x, y) for x in range(x_size) for y in range(y_size)]
    values = rand_partition(rng, len(cells), den)
    xs = [str(i) for i in range(x_size)]
    ys = [chr(ord("a") + i) for i in range(y_size)]
    return JointPmf(xs, ys, {(xs[x], ys[y]): v for (x, y), v in zip(cells, values)})


def joint_from_pmf(pmf, x_prior):
    """Independent product joint with the given Y-marginal."""
    xs = [str(i) for i in range(len(x_prior))]
    mass = {
        (x, y): px * pmf[y]
        for x, px in zip(xs, x_prior)
        for y in pmf.alphabet
        if px * pmf[y]
    }
    return JointPmf(xs, pmf.alphabet, mass)


def sources_with_y_family(rng, fam, x_size=2):
    x_prior = rand_partition(rng, x_size, 8)
    return [joint_from_pmf(p, x_prior) for p in fam]


def y_channel(sources):
    return DiscreteChannel([s.y_marginal() for s in sources])


class TestJointPmf:
    def test_sum_checked(self):
        with pytest.raises(LeakboundError):
            JointPmf("01", "ab", {("0", "a"): Q(1, 2)})

    def test_marginals(self):
        j = JointPmf("01", "ab", {("0", "a"): Q(1, 4), ("1", "b"): Q(3, 4)})
        assert j.y_marginal()["a"] == Q(1, 4)
        assert j.x_marginal()["1"] == Q(3, 4)

    def test_is_a_pmf_over_its_cells(self):
        j = JointPmf("01", "ab", {("0", "a"): Q(1, 4), ("1", "b"): Q(3, 4)})
        assert isinstance(j, Pmf)
        assert j.alphabet == (("0", "a"), ("0", "b"), ("1", "a"), ("1", "b"))
        assert j.mass == {("0", "a"): Q(1, 4), ("1", "b"): Q(3, 4)}
        assert j[("1", "a")] == 0
        assert j.support() == [("0", "a"), ("1", "b")]
        with pytest.raises(AttributeError):
            j.x_alphabet = ("0",)

    def test_equal_axes_and_masses_are_equal_and_hash_alike(self):
        mass = {("0", "a"): Q(1, 4), ("1", "b"): Q(3, 4)}
        first = JointPmf("01", "ab", mass)
        second = JointPmf(["0", "1"], ("a", "b"), dict(reversed(list(mass.items()))))
        assert first == second and hash(first) == hash(second)
        assert first != JointPmf("01", "abc", mass)
        assert first != JointPmf("10", "ab", mass)

    def test_from_values_builds_no_joint(self):
        # The inherited constructor cannot fill in the two axes.
        p = JointPmf.from_values([Q(1, 2), Q(1, 2)], [("0", "a"), ("1", "a")])
        assert type(p) is Pmf


def _one_joint():
    return JointPmf("01", "ab", {("0", "a"): Q(1, 4), ("0", "b"): Q(1, 4),
                                 ("1", "b"): Q(1, 2)})


class TestOneSource:
    """One source value: its joint is its own coupling, and f = 1."""

    def test_feasibility_passes_without_a_value(self):
        ok, _, value = coupling_feasibility([_one_joint().y_marginal()])
        assert (ok, value) == (True, None)

    def test_minimal_y_coupling_is_the_marginal(self):
        p = _one_joint().y_marginal()
        coupling = minimal_y_coupling([p]).coupling()
        assert coupling.mass == {(y,): q for y, q in p.mass.items()}

    def test_penalty_is_one(self):
        assert coupling_penalty([_one_joint()]) == 1


def feasibility_families(rng, m):
    """Seeded (kind, family) pairs of m PMFs: tau_max2 <= 1 ("le1"),
    tau_max2 > 1 ("gt1", from m = 3 on, where it can happen: not on one
    symbol, nor for three rows on two, whose tau_max2 is 1), and at m = 4
    families past tau_max2 <= 1 that pass the four-way condition
    ("relaxed", the two frozen ones among them) or fail it ("failing")."""
    out = []
    for size in range(1, m + 3):
        if m == 1:
            out.append(("le1", rand_family(rng, 1, size)))
        elif size >= m or (m, size) in ((3, 2), (4, 2), (4, 3)):
            out.append(("le1", rand_family_tau_max2_le1(rng, m, size)))
        if m >= 3 and size >= 2 and (m, size) != (3, 2):
            out.append(("gt1", rand_family_tau_max2_gt1(rng, m, size)))
    if m == 4:
        relaxed = [SEARCHED_FAMILY, PAIRED_FAMILY]
        while len(relaxed) < 8:
            fam = rand_family_tau_max2_gt1(rng, 4, rng.choice((3, 4, 5)))
            if coupling_feasibility(fam).ok:
                relaxed.append(fam)
        out += [("relaxed", fam) for fam in relaxed] + [("failing", FAILING_FAMILY)]
    return out


class TestMinimalYCoupling:
    def test_dispatch_matches_lp_value(self):
        rng = random.Random(40)
        for m in (2, 3, 4):
            fam = rand_family_tau_max2_le1(rng, m, 3)
            coupling = minimal_y_coupling(fam).coupling()
            assert sum(
                (q * len(set(t)) for t, q in coupling.mass.items()), Q(0)
            ) == min_union_coupling(fam).optimal_value

    def test_rejects_uncouplable_family(self):
        fam = rand_family_tau_max2_gt1(random.Random(41), 3, 3)
        with pytest.raises(PreconditionError):
            minimal_y_coupling(fam)

    @staticmethod
    def decided_apart(fam):
        """The verdict decided apart from any build: the four-way slack at
        m = 4, tau_max2 at every other m, and no value for one marginal."""
        channel = DiscreteChannel(fam)
        if channel.n == 4:
            ok, ing = n4_condition(channel)
            return ok, "four-way pair-capacity condition", ing.condition_slack()
        if channel.n == 1:
            return True, "tau_max2 <= 1", None
        value = tau_max2(channel)
        return value <= 1, "tau_max2 <= 1", value

    def test_feasibility_report(self):
        # At every m, coupling_feasibility reads the route of
        # minimal_y_coupling: its verdict is the condition decided apart
        # from the build, it holds exactly when the route builds, and a
        # refusal carries the condition and value it reports.
        fam = rand_family_tau_max2_gt1(random.Random(42), 3, 3)
        ok, label, value = coupling_feasibility(fam)
        assert not ok and "tau_max2" in label and value > 1
        rng = random.Random(42)
        seen = Counter()
        for m in range(1, 7):
            for kind, fam in feasibility_families(rng, m):
                ok, label, value = coupling_feasibility(fam)
                assert (ok, label, value) == self.decided_apart(fam)
                try:
                    minimal_y_coupling(fam)
                except PreconditionError as err:
                    assert not ok and (err.condition, err.value) == (label, value)
                    seen[kind, "refused"] += 1
                    continue
                assert ok
                seen[kind, "built"] += 1
        assert seen["le1", "built"] and seen["gt1", "built"] and seen["gt1", "refused"]
        assert seen["relaxed", "built"] == 8 and seen["failing", "refused"] == 1
        assert not seen["le1", "refused"] and not seen["relaxed", "refused"]


class TestBuildIdentical:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_all_sources_identical_fully_tied(self, m):
        rng = random.Random(43)
        src = rand_joint(rng, 2, 3)
        coupling = build_simultaneous_coupling([src] * m)
        assert coupling.c_xy == coupling.c_y == 1
        for (xs, ys) in coupling.mass:
            assert len(set(xs)) == 1 and len(set(ys)) == 1
        assert y_union_mass(coupling) == 1
        assert f_quantity(coupling) == 1


class TestBuildGeneric:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_minimal_union_and_exact_marginals(self, m):
        rng = random.Random(44 + m)
        for _ in range(6):
            if m == 2:
                sources = [rand_joint(rng, 2, 3, den=12) for _ in range(2)]
            else:
                fam = rand_family_tau_max2_le1(rng, m, 3)
                sources = sources_with_y_family(rng, fam)
            coupling = build_simultaneous_coupling(sources)
            # validate() already ran inside the build; re-check the headline
            assert y_union_mass(coupling) == tau_max(y_channel(sources))

    def test_m2_matches_lp_oracle(self):
        rng = random.Random(47)
        for _ in range(10):
            sources = [rand_joint(rng, 2, 3, den=8) for _ in range(2)]
            coupling = build_simultaneous_coupling(sources)
            marginals = [s.y_marginal() for s in sources]
            assert y_union_mass(coupling) == min_union_coupling(marginals).optimal_value

    def test_rejects_when_y_family_uncouplable(self):
        rng = random.Random(48)
        fam = rand_family_tau_max2_gt1(rng, 3, 3)
        sources = sources_with_y_family(rng, fam)
        with pytest.raises(PreconditionError) as err:
            build_simultaneous_coupling(sources)
        assert err.value.value > 1  # names the offending tau_max2

    def test_m4_relaxed_condition_route(self):
        # Y-marginals form the two-disjoint-pairs family with
        # tau_max2 = 2 > 1; the four-way construction still couples them.
        rng = random.Random(49)
        fam = [
            ["1/2", "1/2", "0", "0"],
            ["1/2", "1/2", "0", "0"],
            ["0", "0", "1/2", "1/2"],
            ["0", "0", "1/2", "1/2"],
        ]
        from leakbound import Pmf

        pmfs = [Pmf.from_values([Q(v) for v in row], "abcd") for row in fam]
        sources = sources_with_y_family(rng, pmfs)
        coupling = build_simultaneous_coupling(sources)
        assert tau_max(y_channel(sources)) == 2
        assert y_union_mass(coupling) == 2

    def test_m4_refusal_matches_feasibility_report(self, capsys, tmp_path):
        # The four-way build decides the condition itself; its refusal
        # must carry the label and slack that coupling_feasibility reports.
        ok, _, value = coupling_feasibility(FAILING_FAMILY)
        assert not ok and value == Q(-1, 16)
        # So must the penalty and, from two sources on, the build and
        # ``couple --mode simul``, at every m: each passes exactly when
        # coupling_feasibility of the Y-marginals does.
        rng = random.Random(56)
        path = tmp_path / "joints.json"
        seen = Counter()
        for m in range(1, 7):
            for kind, fam in feasibility_families(rng, m):
                ok, label, value = coupling_feasibility(fam)
                sources = sources_with_y_family(rng, fam)
                builds = [coupling_penalty] + [build_simultaneous_coupling] * (m >= 2)
                if ok:
                    for build in builds:
                        build(sources)
                    seen[kind, "built"] += 1
                    continue
                for build in builds:
                    with pytest.raises(PreconditionError) as err:
                        build(sources)
                    assert (err.value.condition, err.value.value) == (label, value)
                xs, ys = sources[0].x_alphabet, sources[0].y_alphabet
                doc = {
                    "x_alphabet": list(xs),
                    "y_alphabet": list(ys),
                    "joints": [[[str(s[(x, y)]) for y in ys] for x in xs] for s in sources],
                }
                path.write_text(json.dumps(doc))
                code = main(["couple", str(path), "--mode", "simul"])
                out = capsys.readouterr()
                assert code == 1
                assert out.err == f"error: precondition failed: {label} (got {value})\n"
                seen[kind, "refused"] += 1
        assert seen["gt1", "built"] and seen["gt1", "refused"]
        assert seen["relaxed", "built"] == 8 and seen["failing", "refused"] == 1

    def test_mixture_constants_ordered(self):
        rng = random.Random(50)
        for _ in range(10):
            sources = [rand_joint(rng, 2, 2) for _ in range(2)]
            coupling = build_simultaneous_coupling(sources)
            assert 0 <= coupling.c_xy <= coupling.c_y <= 1

    def test_x_marginalization_reproduces_ingredient(self):
        rng = random.Random(51)
        fam = rand_family_tau_max2_le1(rng, 3, 3)
        sources = sources_with_y_family(rng, fam)
        coupling = build_simultaneous_coupling(sources)
        assert coupling.y_projection() == dict(coupling.y_coupling.mass)


class TestFQuantity:
    def test_at_least_joint_doeblin(self):
        # f >= the Doeblin coefficient of the stacked joint channel,
        # whose value is exactly c_XY.
        rng = random.Random(52)
        for _ in range(12):
            m = rng.choice([2, 3])
            if m == 2:
                sources = [rand_joint(rng, 2, 2, den=8) for _ in range(2)]
            else:
                fam = rand_family_tau_max2_le1(rng, 3, 3)
                sources = sources_with_y_family(rng, fam)
            coupling = build_simultaneous_coupling(sources)
            rows = []
            cells = [
                (x, y)
                for x in sources[0].x_alphabet
                for y in sources[0].y_alphabet
            ]
            from leakbound import Pmf

            for s in sources:
                rows.append(
                    Pmf(
                        [str(c) for c in cells],
                        {str(c): s[c] for c in cells if s[c]},
                    )
                )
            assert f_quantity(coupling) >= doeblin(DiscreteChannel(rows))
            assert f_quantity(coupling) >= coupling.c_xy

    def test_x_relabel_invariance(self):
        rng = random.Random(53)
        sources = [rand_joint(rng, 3, 2, den=8) for _ in range(2)]
        coupling = build_simultaneous_coupling(sources)
        relabel = {"0": "z0", "1": "z1", "2": "z2"}
        renamed = [
            JointPmf(
                [relabel[x] for x in s.x_alphabet],
                s.y_alphabet,
                {(relabel[x], y): q for (x, y), q in s.mass.items()},
            )
            for s in sources
        ]
        coupling2 = build_simultaneous_coupling(renamed)
        assert f_quantity(coupling) == f_quantity(coupling2)
        assert y_union_mass(coupling) == y_union_mass(coupling2)

    def test_chain_case_z_equals_v(self):
        # sources with X deterministically equal to Y: the all-equal event
        # coincides with the all-Y-equal event, so f sums the diagonal.
        ys = "ab"
        sources = []
        for vals in ([Q(1, 2), Q(1, 2)], [Q(1, 4), Q(3, 4)]):
            mass = {(y, y): v for y, v in zip(ys, vals)}
            sources.append(JointPmf(ys, ys, mass))
        coupling = build_simultaneous_coupling(sources)
        diag = sum(
            (
                q
                for (xs, yt), q in coupling.mass.items()
                if len(set(yt)) == 1
            ),
            Q(0),
        )
        assert f_quantity(coupling) == diag


def test_m5_interval_build():
    # beyond four sources the ingredient coupling is the interval
    # coupling; joints and the minimal union must still be exact
    rng = random.Random(55)
    fam = rand_family_tau_max2_le1(rng, 5, 5)
    sources = sources_with_y_family(rng, fam)
    coupling = build_simultaneous_coupling(sources)
    assert y_union_mass(coupling) == tau_max(y_channel(sources))
    assert coupling.y_projection() == dict(coupling.y_coupling.mass)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_capacity_estimate_is_exact(m):
    # G1, G2 and G3 never share a key, so the estimate is the support size.
    rng = random.Random(57 + m)
    for _ in range(8):
        x_size = rng.choice((2, 3))
        if m == 2:
            sources = [rand_joint(rng, x_size, 3) for _ in range(2)]
        else:
            fam = rand_family_tau_max2_le1(rng, m, 3)
            sources = sources_with_y_family(rng, fam, x_size)
        size = len(build_simultaneous_coupling(sources).mass)
        assert len(build_simultaneous_coupling(sources, max_states=size).mass) == size
        with pytest.raises(CapacityError) as err:
            build_simultaneous_coupling(sources, max_states=size - 1)
        assert err.value.requested == size


def test_capacity_guard():
    rng = random.Random(54)
    sources = [rand_joint(rng, 3, 3, den=16) for _ in range(2)]
    with pytest.raises(CapacityError):
        build_simultaneous_coupling(sources, max_states=2)


# A support limit that no test here reaches.
ROOMY = 10**7

# tests/fixtures/wide_v4_joints.json is the V-side of the single peel of
# wide_v4.json (U = N6, pa(U) = {N5}, V = {X, N1, ..., N5}): the rows of
# composite_joints(net, ["N5"], WIDE_V), one joint per source value, with
# each cell's node values, one character each, joined into one symbol and
# every mass written as str(Fraction). The first test below regenerates it.
WIDE_FIXTURES = Path(__file__).parent / "fixtures"
WIDE_V = ["X", "N1", "N2", "N3", "N4", "N5"]
WIDE_REFUSAL = (
    "capacity: refusing to enumerate 259308 coupling support tuples (limit 1000); "
    "raise the limit explicitly if this is intentional\n"
)


def wide_v_side():
    net = parse_network((WIDE_FIXTURES / "wide_v4.json").read_text(encoding="utf-8"))
    return composite_joints(net, ["N5"], WIDE_V).rows


class TestSupportCountedFirst:
    """The build counts its support off the G2/G3 parts and refuses a
    large one before listing any tuple."""

    def test_fixture_is_the_single_peel_v_side(self):
        relabelled = [
            JointPmf(
                ["".join(x) for x in row.x_alphabet],
                ["".join(y) for y in row.y_alphabet],
                {("".join(x), "".join(y)): q for (x, y), q in row.mass.items()},
            )
            for row in wide_v_side()
        ]
        text = (WIDE_FIXTURES / "wide_v4_joints.json").read_text(encoding="utf-8")
        assert parse_pmf_file(text) == relabelled

    def test_refused_before_any_tuple_is_listed(self, monkeypatch):
        counts = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(simultaneous, "_list_part")
        counted(Mixture, "coupling")
        with pytest.raises(CapacityError) as err:
            build_simultaneous_coupling(wide_v_side(), max_states=1000)
        assert (err.value.requested, err.value.limit) == (259308, 1000)
        assert counts == Counter()

    def test_cli_refusal(self, capsys):
        code = main(["couple", str(WIDE_FIXTURES / "wide_v4_joints.json"),
                     "--mode", "simul", "--max-states", "1000"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", WIDE_REFUSAL)

    def test_one_part_list(self, monkeypatch):
        # The build and the penalty read the one G2/G3 part list; the build
        # lists each part once, and H once more for ``y_coupling``.
        rng = random.Random(58)
        fam = rand_family_tau_max2_le1(rng, 3, 3)
        sources = tuple(sources_with_y_family(rng, fam, 3))
        table = simultaneous._mixture_table(DiscreteChannel(sources))
        listed, built = Counter(), Counter()
        original_list, original_coupling = simultaneous._list_part, Mixture.coupling

        def list_part(part, arity):
            listed[part] += 1
            return original_list(part, arity)

        def coupling(mixture):
            built[mixture.parts] += 1
            return original_coupling(mixture)

        monkeypatch.setattr(simultaneous, "_list_part", list_part)
        monkeypatch.setattr(Mixture, "coupling", coupling)
        coupling_built = build_simultaneous_coupling(sources, max_states=ROOMY)
        assert listed == Counter(table.parts)
        assert built == Counter([table.y_coupling.parts])
        assert f_quantity(coupling_built) == coupling_penalty(sources)


# The reference penalty: the coupling built, validated and summed.
def built_penalty(sources):
    return f_quantity(build_simultaneous_coupling(sources, max_states=ROOMY))


def penalty_pairs(net, targets):
    """(direct, from the walk's table, built) penalties of every peel step
    of a recursive query whose preconditions all pass."""
    checked, _, failure = bounds._walk(net, bounds._recursive_plan(net, targets), ROOMY)
    if failure:
        return []
    out = []
    for step, table in checked:
        sources = composite_joints(net, net.by_id[step.u].parents, step.v_set, ROOMY).rows
        out.append((
            coupling_penalty(sources),
            simultaneous._penalty(table),
            built_penalty(sources),
        ))
    return out


@st.composite
def joint_families(draw):
    """m = 2..5 joints on small alphabets from sparse integer weights.

    Each joint is a shared joint plus its own weights, scaled so that the
    shared part dominates more or less; or, in the "same Y" mode, the
    shared Y-marginal split over X by the joint's own weights, which
    keeps the Y-family couplable at every m.
    """
    m = draw(st.sampled_from([2, 3, 4, 5]))
    x_size = draw(st.integers(2, 3 if m <= 3 else 2))
    y_size = draw(st.integers(2, 4 if m <= 4 else 3))
    xs = [str(i) for i in range(x_size)]
    ys = [chr(ord("a") + i) for i in range(y_size)]
    weights = st.lists(
        st.sampled_from([0, 0, 1, 2, 3]), min_size=x_size * y_size,
        max_size=x_size * y_size,
    )
    base = draw(weights.filter(any))
    pull = draw(st.sampled_from([0, 3, 12, "same Y"]))
    sources = []
    for _ in range(m):
        own = draw(weights)
        if pull == "same Y":
            mass = {}
            for b, y in enumerate(ys):
                col = [own[a * y_size + b] or 1 for a in range(x_size)]
                py = Q(sum(base[a * y_size + b] for a in range(x_size)), sum(base))
                mass.update(
                    ((x, y), py * Q(w, sum(col))) for x, w in zip(xs, col)
                )
        else:
            row = [pull * b + o for b, o in zip(base, own)]
            row = row if any(row) else base
            mass = {
                (xs[k // y_size], ys[k % y_size]): Q(v, sum(row))
                for k, v in enumerate(row)
            }
        sources.append(JointPmf(xs, ys, mass))
    return sources


class TestCouplingPenalty:
    """``coupling_penalty`` equals f of the built coupling, exactly."""

    FIXTURES = Path(__file__).parent / "fixtures"

    @pytest.mark.parametrize(
        "name", ["chain.json", "relay.json", "diamond.json", "random1.json", "random2.json"]
    )
    def test_fixture_nets(self, name):
        net = parse_network((self.FIXTURES / name).read_text())
        ids = [nid for nid in net.node_ids() if nid != net.source]
        pairs = [
            p
            for k in range(2, len(ids) + 1)
            for targets in itertools.combinations(ids, k)
            for p in penalty_pairs(net, list(targets))
        ]
        assert pairs
        for direct, from_table, built in pairs:
            assert direct == from_table == built

    def test_seeded_nets(self):
        rng = random.Random(61)
        compared = set()
        for k in range(60):
            if k % 2:
                net = rand_couplable_net(rng, rng.randrange(3, 7), x_size=rng.choice((2, 3, 4)))
            else:
                net = rand_net(rng, n_nodes=rng.randrange(3, 6), max_alphabet=3)
            ids = [nid for nid in net.node_ids() if nid != net.source]
            targets = rng.sample(ids, rng.randrange(2, len(ids) + 1))
            for direct, from_table, built in penalty_pairs(net, targets):
                assert direct == from_table == built
                compared.add(len(net.by_id[net.source].alphabet))
        assert compared == {2, 3, 4}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(joint_families())
    def test_property_joints(self, sources):
        # m = 5 takes the interval route. Both sides refuse an uncouplable
        # Y-family alike.
        try:
            want = built_penalty(sources)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                coupling_penalty(sources)
            return
        assert coupling_penalty(sources) == want
        assert coupling_penalty(DiscreteChannel(sources)) == want

    def test_m5_interval_route(self):
        rng = random.Random(55)
        fam = rand_family_tau_max2_le1(rng, 5, 5)
        sources = sources_with_y_family(rng, fam)
        assert coupling_penalty(sources) == built_penalty(sources)

    def test_no_support_limit(self):
        # The penalty builds no support, so a limit that the build refuses
        # does not apply to it.
        rng = random.Random(54)
        sources = [rand_joint(rng, 3, 3, den=16) for _ in range(2)]
        with pytest.raises(CapacityError):
            build_simultaneous_coupling(sources, max_states=2)
        assert coupling_penalty(sources) == built_penalty(sources)

    def test_failing_verdict_refuses(self):
        # The four-way route decides the failing family's condition itself
        # and refuses it as coupling_feasibility reports it.
        sources = sources_with_y_family(random.Random(56), FAILING_FAMILY)
        ok, label, value = coupling_feasibility(FAILING_FAMILY)
        with pytest.raises(PreconditionError) as err:
            coupling_penalty(sources)
        assert not ok and (err.value.condition, err.value.value) == (label, value)


class TestCheckMixture:
    """``_check_mixture`` refuses every way a mixture can miss being a
    minimal Y-coupling with a pinned diagonal."""

    @staticmethod
    def tuple_mixture(marginals, mass):
        parts = tuple(_tuple_part(t, q.numerator, q.denominator) for t, q in mass.items())
        return Mixture(DiscreteChannel(marginals), parts)

    @staticmethod
    def check(mixture):
        """``_check_mixture`` on the mixture's parts; it passes or refuses
        with the message of ``helpers.reference_check_mixture``, which
        checks the parts with the part's denominator folded into its first
        group, on Fractions."""
        folded = tuple(
            tuple(
                (coords, tuple((y, Q(e, den) if g == 0 else Q(e)) for y, e in entries))
                for g, (coords, entries) in enumerate(groups)
            )
            for den, groups in mixture.parts
        )
        try:
            reference_check_mixture(mixture.marginals.rows, folded)
        except ConstructionError as err:
            with pytest.raises(ConstructionError) as got:
                _check_mixture(mixture.parts, mixture.marginals)
            assert str(got.value) == str(err)
            raise
        _check_mixture(mixture.parts, mixture.marginals)

    def test_closed_forms_pass(self):
        # The parts count the support exactly: each part has its own tie
        # pattern, and its groups never share a symbol.
        rng = random.Random(62)
        for m, size in ((2, 3), (3, 3), (4, 3), (4, 4), (5, 5)):
            fam = rand_family_tau_max2_le1(rng, m, size)
            mixture = minimal_y_coupling(fam)
            self.check(mixture)
            size = sum(prod(len(entries) for _, entries in groups) for _, groups in mixture.parts)
            assert size == len(mixture.coupling().mass)

    def test_moved_mass_raises(self):
        # Moving mass between two untied parts of two symbols keeps the
        # total, the union mass and the diagonal, but breaks a marginal.
        fam = rand_family_tau_max2_le1(random.Random(62), 3, 3)
        mass = dict(minimal_y_coupling(fam).coupling().mass)
        t1, t2 = [t for t in sorted(mass) if len(set(t)) == 2][:2]
        shift = min(mass[t1], mass[t2]) / 2
        mass[t1] += shift
        mass[t2] -= shift
        with pytest.raises(ConstructionError, match="marginal"):
            self.check(self.tuple_mixture(fam, mass))

    def test_overlapping_groups_raise(self):
        # Two independent uniform coordinates have the right marginals,
        # but their groups share both symbols.
        uniform = Pmf("01", {"0": Q(1, 2), "1": Q(1, 2)})
        half = {"0": 1, "1": 1}
        parts = _mixture([(2, [((0,), half, 2), ((1,), half, 2)])], 2)
        with pytest.raises(ConstructionError, match="overlapping"):
            self.check(Mixture(DiscreteChannel((uniform, uniform)), parts))

    def test_diagonal_off_the_floor_raises(self):
        # A minimal coupling of this family need not pin its diagonal: the
        # plain LP's witness attains tau_max with every marginal, yet puts
        # less than the floor on ("0", "0", "0").
        fam = rand_family_tau_max2_le1(random.Random(17), 3, 3)
        witness = min_union_coupling(fam).witness
        assert union_mass(witness) == tau_max(DiscreteChannel(fam))
        with pytest.raises(ConstructionError, match="diagonal at '0'"):
            self.check(self.tuple_mixture(fam, witness.mass))
        self.check(minimal_y_coupling(fam))


class TestResidualsAgainstReference:
    """r_i(. | y) normalized by P_i(y) - sum_x P_min(x, y) against the scan
    over X normalized by the sum of its entries."""

    @staticmethod
    def compare(sources):
        """The residuals, equal to the reference's; None if the Y-family
        is not couplable."""
        try:
            table = simultaneous._mixture_table(DiscreteChannel(sources))
        except PreconditionError:
            return None
        residual = tuple(
            {
                y: {x: Q(d, table.rest[i][y]) for x, d in table.residual[i].get(y, {}).items()}
                for y in sources[0].y_alphabet
            }
            for i in range(len(sources))
        )
        assert residual == reference_residuals(sources)
        return residual

    def test_shared_column_and_zero_cells(self):
        # Every source has the same column at "a", so every residual there
        # is 0; each source's own cells are sparse.
        rng = random.Random(63)
        compared = 0
        for m in (2, 3, 4):
            for _ in range(10):
                xs, ys = "012", "abc"
                shared = rand_partition(rng, 3, 4)
                weight = Q(rng.randrange(1, 4), 4)
                sources = []
                for _ in range(m):
                    own = rand_partition(rng, 6, 2)
                    mass = {(x, "a"): weight * q for x, q in zip(xs, shared)}
                    cells = [(x, y) for x in xs for y in ys[1:]]
                    mass.update((cell, (1 - weight) * q) for cell, q in zip(cells, own))
                    sources.append(JointPmf(xs, ys, mass))
                residual = self.compare(sources)
                if residual is not None:
                    compared += 1
                    assert all(r["a"] == {} for r in residual)
                    assert all(len(s.mass) < len(s.alphabet) for s in sources)
        assert compared >= 20

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(joint_families())
    def test_property_joints(self, sources):
        self.compare(sources)

    def test_wide_fixture(self):
        text = (WIDE_FIXTURES / "wide_v4_joints.json").read_text(encoding="utf-8")
        assert self.compare(parse_pmf_file(text)) is not None


class TestValidateRefusals:
    """``SimulCoupling.validate`` refuses each broken identity with its
    message, checked in order: signs, total, source marginals,
    Y-projection."""

    @staticmethod
    def built():
        text = (WIDE_FIXTURES / "joints_pair.json").read_text(encoding="utf-8")
        return build_simultaneous_coupling(parse_pmf_file(text))

    def test_moved_mass_breaks_a_source_marginal(self):
        coupling = self.built()
        mass = dict(coupling.mass)
        t1, t2 = sorted(mass)[:2]
        shift = min(mass[t1], mass[t2]) / 2
        mass[t1] -= shift
        mass[t2] += shift
        with pytest.raises(ConstructionError) as err:
            dataclasses.replace(coupling, mass=mass).validate()
        assert str(err.value) == "source 1 marginal mismatch at ('0', 'a')"

    def test_halved_mass_breaks_the_total(self):
        coupling = self.built()
        halved = {key: q / 2 for key, q in coupling.mass.items()}
        with pytest.raises(ConstructionError) as err:
            dataclasses.replace(coupling, mass=halved).validate()
        assert str(err.value) == "coupling mass sums to 1/2"

    def test_negative_mass_refused(self):
        # Moving 2 * min(q_a, q_b) off the tuples ((0,0),(a,a)) and
        # ((1,1),(a,a)) onto ((1,0),(a,a)) and ((0,1),(a,a)) keeps the
        # total, both source marginals and the Y-projection, but leaves
        # both first tuples negative.
        doc = {"x_alphabet": ["0", "1"], "y_alphabet": ["a", "b"],
               "joints": [[["1/8", "1/8"], ["1/4", "1/2"]], [["1/4", "1/8"], ["1/8", "1/2"]]]}
        coupling = build_simultaneous_coupling(parse_pmf_file(json.dumps(doc)))
        mass = dict(coupling.mass)
        q_a, q_b = mass[(("0", "0"), ("a", "a"))], mass[(("1", "1"), ("a", "a"))]
        shift = 2 * min(q_a, q_b)
        for xs, sign in ((("0", "0"), -1), (("1", "1"), -1), (("1", "0"), 1), (("0", "1"), 1)):
            mass[(xs, ("a", "a"))] = mass.get((xs, ("a", "a")), Q(0)) + sign * shift
        moved = dataclasses.replace(coupling, mass=mass)
        assert sum(mass.values()) == 1 and moved.y_projection() == coupling.y_projection()
        for i in range(2):
            assert moved.source_marginal(i) == coupling.source_marginal(i)
        with pytest.raises(ConstructionError) as err:
            moved.validate()
        assert str(err.value) == "negative mass -1/8 at (('0', '0'), ('a', 'a'))"

    def test_other_y_coupling_breaks_the_projection(self):
        coupling = self.built()
        other = independent_coupling(coupling.y_coupling.marginals)
        with pytest.raises(ConstructionError) as err:
            dataclasses.replace(coupling, y_coupling=other).validate()
        assert str(err.value) == "Y-projection differs from ingredient coupling"

    def test_total_message_abbreviates_long_integers(self):
        # str() of an integer past 4300 digits raises ValueError; the
        # message gives its bit length instead.
        coupling = self.built()
        tiny = Q(1, 10**4400)
        short = {key: q * (1 - tiny) for key, q in coupling.mass.items()}
        with pytest.raises(ConstructionError) as err:
            dataclasses.replace(coupling, mass=short).validate()
        assert str(err.value) == (
            "coupling mass sums to <14617-bit integer>/<14617-bit integer>"
        )


def outcome(fn, *args):
    """What a call returns, or the type, message and value of its refusal."""
    try:
        return fn(*args)
    except LeakboundError as err:
        return type(err).__name__, str(err), getattr(err, "value", None)


KINDS = ("small", "pulled", "disjoint", "floor", "coprime")


def rand_penalty_joints(rng, m, kind):
    """m joints P_{X,Y} of one kind: "small" weights (zero cells, ties),
    "pulled" toward a shared joint, "disjoint" cell supports, "floor" (source
    0 at the cellwise minimum on the whole column "a", so its rest_0("a")
    is 0), or "coprime" masses over denominators up to 10**6. From m = 4
    on the Y alphabet has at most three symbols, which keeps the
    reference's LP at m = 5 small."""
    xs = tuple(str(i) for i in range(rng.randint(1, 3 if m <= 3 else 2)))
    ys = tuple("abcd"[: rng.randint(1, 4 if m <= 3 else 3)])
    cells = list(itertools.product(xs, ys))

    def weights(k):
        while not any(w := [rng.choice((0, 0, 1, 2, 3)) for _ in range(k)]):
            pass
        return w

    if kind == "floor":
        shape, floor = weights(len(xs)), Q(rng.randint(1, 5), 6) if len(ys) > 1 else Q(1)
        sources = []
        for i in range(m):
            share = floor if i == 0 else floor + (1 - floor) * Q(rng.randint(0, 4), 4)
            mass = {(x, "a"): share * Q(w, sum(shape)) for x, w in zip(xs, shape)}
            rest = [(x, y) for x in xs for y in ys[1:]]
            if share < 1:
                own = weights(len(rest))
                mass.update((cell, (1 - share) * Q(w, sum(own))) for cell, w in zip(rest, own))
            sources.append(JointPmf(xs, ys, mass))
        return sources
    base = weights(len(cells))
    sources = []
    for i in range(m):
        if kind == "coprime":
            support = rng.sample(cells, rng.randint(1, len(cells)))
            masses = []
            for _ in support[1:]:
                den = rng.randint(1, 10**6)
                masses.append(Q(rng.randint(0, den // len(support)), den))
            masses.append(1 - sum(masses, Q(0)))
            sources.append(JointPmf(xs, ys, dict(zip(support, masses))))
            continue
        own = weights(len(cells))
        if kind == "pulled":
            row = [12 * b + o for b, o in zip(base, own)]
        elif kind == "disjoint":
            row = [o if k % m == i else 0 for k, o in enumerate(own)]
        else:
            row = own
        row = row if any(row) else base
        sources.append(JointPmf(xs, ys, {c: Q(w, sum(row)) for c, w in zip(cells, row)}))
    return sources


@st.composite
def penalty_joints(draw):
    m, kind, seed = draw(st.integers(1, 5)), draw(st.sampled_from(KINDS)), draw(st.integers(0))
    return rand_penalty_joints(random.Random(seed), m, kind)


class TestPenaltyAgainstReference:
    """The integer penalty and Y-couplings against the ``Fraction`` code
    they replaced (``helpers.reference_*``), with exact equality."""

    @staticmethod
    def compare(sources):
        """Asserts that the penalty, or its refusal, is the reference's from
        the joints and from their channel, and is f of the built coupling;
        returns the reference outcome."""
        want = outcome(reference_coupling_penalty, sources)
        assert outcome(coupling_penalty, sources) == want
        assert outcome(coupling_penalty, DiscreteChannel(sources)) == want
        if isinstance(want, Q) and len(sources) >= 2:
            assert built_penalty(sources) == want
        return want

    @staticmethod
    def compare_y_couplings(y_pmfs):
        """``minimal_y_coupling`` lists the reference's masses, or refuses
        alike."""
        m = len(y_pmfs)
        want = outcome(lambda: reference_mass(reference_minimal_y_coupling(y_pmfs), m))
        assert outcome(lambda: minimal_y_coupling(y_pmfs).coupling().mass) == want
        return want

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(penalty_joints())
    def test_property_joints(self, sources):
        self.compare(sources)
        self.compare_y_couplings([s.y_marginal() for s in sources])

    def test_every_kind(self):
        # Each kind at every m, with the features it is meant to have.
        rng = random.Random(64)
        seen = Counter()
        for m in range(1, 6):
            for kind in KINDS:
                for _ in range(6 if m < 5 else 2):
                    sources = rand_penalty_joints(rng, m, kind)
                    want = self.compare(sources)
                    self.compare_y_couplings([s.y_marginal() for s in sources])
                    if not isinstance(want, Q):
                        seen["refused", m] += 1
                        continue
                    seen["built", m] += 1
                    table = simultaneous._mixture_table(DiscreteChannel(sources))
                    seen["zero rest"] += any(
                        rest[y] == 0 and table.y_coupling.marginals.columns[y][i]
                        for i, rest in enumerate(table.rest) for y in rest
                    )
                    seen["disjoint"] += m > 1 and not table.p_min
                    seen["coprime"] += table.den > 10**6
        for m in range(1, 6):
            assert seen["built", m]
        for m in (3, 4, 5):
            assert seen["refused", m]
        assert seen["zero rest"] and seen["disjoint"] and seen["coprime"]

    def test_wide_fixture(self):
        text = (WIDE_FIXTURES / "wide_v4_joints.json").read_text(encoding="utf-8")
        sources = parse_pmf_file(text)
        assert coupling_penalty(sources) == reference_coupling_penalty(sources)

    @pytest.mark.parametrize("case", ["three-way", "four-way", "m >= 5"])
    def test_refusals(self, case):
        rng = random.Random(65)
        if case == "three-way":
            fam = rand_family_tau_max2_gt1(rng, 3, 3)
        elif case == "four-way":
            fam = FAILING_FAMILY
        else:
            fam = rand_family_tau_max2_gt1(rng, 5, 2)
        want = outcome(reference_minimal_y_coupling, fam, ROOMY)
        assert want[0] == "PreconditionError"
        assert outcome(minimal_y_coupling, fam) == want
        sources = sources_with_y_family(rng, fam)
        assert outcome(coupling_penalty, sources) == want
        assert outcome(reference_coupling_penalty, sources, ROOMY) == want


class TestValidateAgainstReference:
    """``SimulCoupling.validate`` checks on integers; it passes, or
    refuses with the message of its ``Fraction`` reference
    (``helpers.reference_simul_validate``), on built couplings, on faulty
    copies of their masses (``helpers.perturbed_masses``) and with a
    foreign Y-coupling."""

    @staticmethod
    def compare(sources):
        """Returns the number of faulty copies compared, 0 if the build
        refuses."""
        try:
            built = build_simultaneous_coupling(sources)
        except LeakboundError:
            return 0
        m, xs, ys = built.arity, sources[0].x_alphabet, sources[0].y_alphabet
        keys = ((a, b) for a in itertools.product(xs, repeat=m)
                for b in itertools.product(ys, repeat=m))
        faulty = [dataclasses.replace(built, mass=mass)
                  for mass in perturbed_masses(built.mass, keys).values()]
        foreign = independent_coupling(built.y_coupling.marginals)
        faulty.append(dataclasses.replace(built, y_coupling=foreign))
        for coupling in (built, *faulty):
            assert outcome(coupling.validate) == outcome(reference_simul_validate, coupling)
        return len(faulty)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(joint_families(), penalty_joints()))
    def test_property_joints(self, sources):
        self.compare(sources)

    def test_seeded_joints(self):
        rng = random.Random(72)
        compared = Counter()
        for m in range(2, 6):
            for kind in KINDS:
                compared[m] += self.compare(rand_penalty_joints(rng, m, kind))
        assert all(compared[m] >= 5 for m in range(2, 6))


class TestUnionSumsAgainstReference:
    """``y_union_mass`` and ``f_quantity`` add integer numerators over one
    denominator; they equal their ``Fraction`` references
    (``helpers.reference_y_union_mass``, ``reference_f_quantity``) on built
    couplings and on faulty copies of their masses, which they sum as
    given."""

    @staticmethod
    def compare(sources):
        """Returns the number of mass tables compared, 0 if the build
        refuses."""
        try:
            built = build_simultaneous_coupling(sources, max_states=ROOMY)
        except LeakboundError:
            return 0
        m, xs, ys = built.arity, sources[0].x_alphabet, sources[0].y_alphabet
        keys = ((a, b) for a in itertools.product(xs, repeat=m)
                for b in itertools.product(ys, repeat=m))
        tables = [built.mass, *perturbed_masses(built.mass, keys).values()]
        for mass in tables:
            coupling = dataclasses.replace(built, mass=mass)
            for fast, slow in ((y_union_mass, reference_y_union_mass),
                               (f_quantity, reference_f_quantity)):
                got = fast(coupling)
                assert type(got) is Q and got == slow(coupling)
        return len(tables)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(joint_families(), penalty_joints()))
    def test_property_joints(self, sources):
        self.compare(sources)

    def test_seeded_joints(self):
        rng = random.Random(73)
        compared = Counter()
        for m in range(2, 6):
            for kind in KINDS:
                compared[m] += self.compare(rand_penalty_joints(rng, m, kind))
        assert all(compared[m] >= 5 for m in range(2, 6))

    @pytest.mark.parametrize("name", ["coprime_joints", "joints_pair"])
    def test_fixtures(self, name):
        text = (WIDE_FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        assert self.compare(parse_pmf_file(text)) > 1


INTERVAL_KINDS = ("dominant", "coprime", "boundary", "free")


def rand_interval_family(rng, m, size, kind, outside=False):
    """m marginals on ``size`` symbols, plus a symbol "z" outside every
    support if ``outside``. "dominant" rows put weight >= 1 - 1/m on a
    symbol of their own and the rest on small integer weights, so
    tau_max2 <= 1; "coprime" does the same with weights over denominators
    up to 10**6. Both need size >= m, and fall back to "free" otherwise.
    "boundary" rows are two copies of one row and rows pulled from it
    toward distinct symbols of their own, so tau_max2 = 1 exactly and
    the copies tie for the column maximum. "free" rows are small integer
    weights, with zeros and ties, and mostly fail tau_max2 <= 1."""
    symbols = [str(k) for k in range(size)]

    def weights():
        while not any(w := [rng.choice((0, 0, 1, 2, 3)) for _ in symbols]):
            pass
        return [Q(v, sum(w)) for v in w]

    if kind in ("dominant", "coprime") and size >= m:
        spots = rng.sample(range(size), m)
        rows = []
        for spot in spots:
            den = rng.randint(10**5, 10**6) if kind == "coprime" else rng.choice((8, 12, 16, 24))
            lam = Q(rng.randint(-(-(m - 1) * den // m), den), den)
            rows.append([lam * (k == spot) + (1 - lam) * q for k, q in enumerate(weights())])
    elif kind == "boundary":
        base = weights()
        spots = rng.sample(range(size), min(size, m - 2))
        rows = [base, base]
        for i in range(m - 2):
            lam = Q(rng.randint(0, 4), 4) if i < len(spots) else 0
            rows.append([(1 - lam) * q + (lam if i < len(spots) and k == spots[i] else 0)
                         for k, q in enumerate(base)])
        rng.shuffle(rows)
    else:
        rows = [weights() for _ in range(m)]
    if outside:
        symbols, rows = symbols + ["z"], [row + [Q(0)] for row in rows]
    return [Pmf.from_values(row, symbols) for row in rows]


@st.composite
def interval_families(draw):
    m, size = draw(st.sampled_from((2, 3, 5, 6, 7))), draw(st.integers(1, 7))
    kind, seed, outside = draw(st.sampled_from(INTERVAL_KINDS)), draw(st.integers(0)), draw(st.booleans())
    return rand_interval_family(random.Random(seed), m, size, kind, outside)


class TestIntervalParts:
    """The interval coupling at every m but 4: a checked minimal
    Y-coupling with a pinned diagonal on at most 2m|Y| + 2 distinct
    tuples, refused exactly when ``coupling_feasibility`` refuses, and
    tuple for tuple the layout of ``helpers.reference_interval_parts``."""

    @staticmethod
    def check(fam):
        """``{"refused"}``, or the family's features once every check has
        passed."""
        m = len(fam)
        verdict = coupling_feasibility(fam)
        channel = DiscreteChannel(fam)
        den, columns = channel.den, channel.columns
        try:
            mixture = minimal_y_coupling(fam)
        except PreconditionError as err:
            assert not verdict.ok
            assert (err.condition, err.value) == (verdict.label, verdict.value)
            with pytest.raises(PreconditionError):
                reference_interval_parts(fam)
            return {"refused"}
        assert verdict.ok
        TestCheckMixture.check(mixture)
        assert mixture.coupling().mass == reference_mass(reference_interval_parts(fam), m)
        listed = [tup for part in mixture.parts for tup, _ in _list_part(part, m)]
        assert len(listed) == len(set(listed)) == len(mixture.parts) <= 2 * m * len(columns) + 2
        # A column of zeros adds no breakpoint.
        zero = dict(columns, z=(0,) * m)
        # The core total is tau_max2's numerator over den.
        core_total = sum(sorted(col)[-2] for col in columns.values()) if m > 1 else 0
        assert _interval_parts(den, zero, m) == (core_total, mixture.parts)
        features = {"built"}
        if len(fam[0].alphabet) ** m <= 729:
            lp_value = min_union_coupling_diag(fam).optimal_value
            assert union_mass(mixture.coupling()) == lp_value == tau_max(DiscreteChannel(fam))
            features.add("lp")
        if any(col.count(max(col)) > 1 for col in columns.values()):
            features.add("tie")
        if verdict.value == 1:
            features.add("tau_max2 = 1")
        if den > 10**6:
            features.add("coprime")
        if len(columns) < len(fam[0].alphabet):
            features.add("outside")
        return features

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interval_families())
    def test_property_families(self, fam):
        self.check(fam)

    def test_seeded_families(self):
        rng = random.Random(66)
        seen = Counter()
        for m in (2, 3, 5, 6, 7):
            for size in range(1, 8):
                for kind in INTERVAL_KINDS:
                    for outside in (False, True):
                        fam = rand_interval_family(rng, m, size, kind, outside)
                        seen.update(self.check(fam))
        assert seen["built"] > 60 and seen["refused"] > 20
        for feature in ("lp", "tie", "tau_max2 = 1", "coprime", "outside"):
            assert seen[feature]

    def test_worked_layout(self):
        # Cores [0, 2), [2, 3), [3, 4) of "a", "b", "c" on [0, 4). Row 0,
        # the argmax of "a", pours its excess into [2, 4); rows 1 and 2, the
        # argmaxes of "b" and "c", pour theirs into the gaps they leave in
        # the other cores. Only [0, 1) is tied, at min_i P_i("a") = 1/4.
        rows = {"a": (4, 1, 1, 2, 2), "b": (0, 3, 0, 1, 1), "c": (0, 0, 3, 1, 1)}
        core_total, parts = _interval_parts(4, rows, 5)
        assert core_total == 2 + 1 + 1
        listed = {tup: (num, den) for den, groups in parts for tup, num in _list_part((den, groups), 5)}
        assert listed == {
            ("a", "a", "a", "a", "a"): (1, 4),
            ("a", "b", "c", "a", "a"): (1, 4),
            ("a", "b", "c", "b", "b"): (1, 4),
            ("a", "b", "c", "c", "c"): (1, 4),
        }


FRACTION_READS = {"__new__", "numerator", "denominator"}


@pytest.mark.parametrize("name, v_set, u", [
    ("diamond.json", ["X"], "Y3"),
    ("diamond.json", ["Y1", "Y2"], "Y3"),
    ("coprime3.json", ["X"], "Y3"),
    ("coprime3.json", ["X", "Y1"], "Y3"),
    ("coprime3.json", ["Y1"], "Y3"),
    ("wide_v4.json", ["X", "N1", "N2", "N3", "N4", "N5"], "N6"),
    ("coprime4.json", ["X"], "Y3"),
    ("coprime4.json", ["Y1", "Y2"], "Y3"),
    ("star5.json", ["N1"], "N3"),
])
def test_coupling_penalty_does_no_fraction_arithmetic(name, v_set, u, monkeypatch):
    # At |X| = 2, 3, 4 and 5 the penalty reads the joints' law, takes the
    # four-way Y-coupling at |X| = 4 and the interval one otherwise, checks
    # it and sums f on integers; a Fraction is built only for f, and no Pmf
    # at all: at |X| = 4 the four-way ingredients, condition included, are
    # read off the Y-marginals' law. With the source in V, the X-copies
    # never agree on a cell, so f
    # is all G2/G3 mass and exceeds the Doeblin coefficient, 0.
    net = parse_network((WIDE_FIXTURES / name).read_text())
    (checked,), _, failure = bounds._walk(net, bounds._Plan([(u, v_set, ())], v_set), ROOMY)
    assert failure is None
    joints = composite_joints(net, net.by_id[u].parents, v_set, ROOMY)
    monkeypatch.setattr(Pmf, "__init__", refuse_pmf)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            if frame.f_code.co_name not in FRACTION_READS:
                calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        penalty = coupling_penalty(joints)
    finally:
        sys.setprofile(None)
    assert calls == []
    monkeypatch.undo()
    assert penalty == simultaneous._penalty(checked.table)
    assert penalty == reference_coupling_penalty(joints.rows)
    assert penalty > doeblin(joints) if "X" in v_set else penalty >= doeblin(joints)


@pytest.mark.parametrize("name", [
    "joints_pair.json", "coprime_joints.json", "pmfs_n4.json", "pmfs_cycle3.json",
])
def test_listed_couplings_are_checked_without_fraction_arithmetic(name, monkeypatch):
    # A listed coupling's masses are summed and compared with the
    # marginals' law, the sources' masses and the intersection minima on
    # integer numerators: a Fraction is built only per listed tuple and per
    # violation, and no Pmf at all. pmfs_cycle3 fails tau_max2 <= 1, so its
    # product coupling is checked and its violations listed.
    items = parse_pmf_file((WIDE_FIXTURES / name).read_text(encoding="utf-8"))
    monkeypatch.setattr(Pmf, "__init__", refuse_pmf)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            if frame.f_code.co_name not in FRACTION_READS:
                calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        if isinstance(items[0], JointPmf):
            built = build_simultaneous_coupling(items)
        else:
            listed = [independent_coupling(items)]
            if len(items) == 4:
                listed.append(build_n4_coupling(items))
            rechecked = [Coupling(c.alphabet, c.arity, c.mass, items) for c in listed]
            violations = [intersection_violations(c, items) for c in listed]
    finally:
        sys.setprofile(None)
    assert calls == []
    monkeypatch.undo()
    if isinstance(items[0], JointPmf):
        reference_simul_validate(built)
        return
    assert [c.mass for c in rechecked] == [c.mass for c in listed]
    assert violations == [reference_intersection_violations(c, items) for c in listed]
    # The product coupling lacks the intersection property; the four-way
    # coupling has it.
    assert violations[0] and not any(violations[1:])


def interval_coupling_of(fam):
    channel = DiscreteChannel(fam)
    return Mixture(channel, _interval_parts(channel.den, channel.columns, channel.n)[1]).coupling


@pytest.mark.parametrize("name", [
    "joints_pair.json", "coprime_joints.json", "pmfs_n4.json", "interval m = 5",
])
def test_listing_forms_one_law_per_coupling(name):
    # A listed coupling puts its masses over one denominator once and
    # builds no Fraction per tuple: one Mixture.coupling() or one
    # build_simultaneous_coupling (which lists two couplings) never calls
    # _over_lcm, as the joints' channel reads their numerators, and
    # constructs fewer Fractions than the support has tuples (c_XY and c_Y).
    if name.endswith(".json"):
        items = parse_pmf_file((WIDE_FIXTURES / name).read_text(encoding="utf-8"))
    else:
        items = rand_interval_family(random.Random(3), 5, 6, "coprime")
    if isinstance(items[0], JointPmf):
        build = lambda: build_simultaneous_coupling(items)  # noqa: E731
    elif len(items) == 4:
        build = n4_mixture(n4_ingredients(items)).coupling
    else:
        build = interval_coupling_of(items)
    counts = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is measures._over_lcm.__code__:
            counts["_over_lcm"] += 1
        elif frame.f_code.co_filename == fractions.__file__ and frame.f_code.co_name == "__new__":
            counts["Fraction"] += 1

    sys.setprofile(profile)
    try:
        built = build()
    finally:
        sys.setprofile(None)
    assert counts["_over_lcm"] == 0
    assert counts["Fraction"] < len(built.mass)
    assert type(built.mass) is ExactLaw


class TestListedLawAgainstReference:
    """``build_simultaneous_coupling`` keeps its masses and its
    Y-coupling's as ``ExactLaw``s; read as Fractions they are the
    reference listings (``helpers.reference_simul_mass``,
    ``reference_mass`` of the reference Y-parts), the reference check
    passes them, and the union sums read off the numerators equal their
    ``Fraction`` references."""

    @staticmethod
    def compare(sources):
        """Returns 1 if the build lists the coupling, 0 if it refuses."""
        try:
            built = build_simultaneous_coupling(sources, max_states=ROOMY)
        except LeakboundError:
            return 0
        assert type(built.mass) is ExactLaw and type(built.y_coupling.mass) is ExactLaw
        plain = dataclasses.replace(built, mass=dict(built.mass))
        assert plain.mass == reference_simul_mass(sources)
        reference_simul_validate(plain)
        plain.validate()
        y_parts = reference_minimal_y_coupling([s.y_marginal() for s in sources])
        assert dict(built.y_coupling.mass) == reference_mass(y_parts, built.arity)
        assert y_union_mass(built) == reference_y_union_mass(plain)
        assert f_quantity(built) == reference_f_quantity(plain)
        assert built.sources == tuple(sources)
        return 1

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(joint_families(), penalty_joints()))
    def test_property_joints(self, sources):
        self.compare(sources)

    def test_seeded_joints(self):
        rng = random.Random(74)
        compared = Counter()
        for m in range(2, 6):
            for kind in KINDS * 3:
                compared[m] += self.compare(rand_penalty_joints(rng, m, kind))
        assert all(compared[m] >= 5 for m in range(2, 6))

    @pytest.mark.parametrize("name", ["coprime_joints", "joints_pair"])
    def test_fixtures(self, name):
        text = (WIDE_FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        assert self.compare(parse_pmf_file(text)) == 1


def as_law(mass) -> ExactLaw:
    """The masses as an ExactLaw, over the LCM of their denominators."""
    return ExactLaw(*numerators(mass))


RATIONAL = r"\d+(/\d+)?"


class TestTamperedLawRefusals:
    """A tampered ``ExactLaw`` is refused with the message of the same
    masses given as ``Fraction``s: by ``SimulCoupling.validate`` and by
    ``Coupling``'s integer path."""

    def test_validate(self):
        coupling = TestValidateRefusals.built()
        mass = dict(coupling.mass)
        t1, t2 = sorted(mass)[:2]
        shift = min(mass[t1], mass[t2]) / 2
        doc = {"x_alphabet": ["0", "1"], "y_alphabet": ["a", "b"],
               "joints": [[["1/8", "1/8"], ["1/4", "1/2"]], [["1/4", "1/8"], ["1/8", "1/2"]]]}
        signed = build_simultaneous_coupling(parse_pmf_file(json.dumps(doc)))
        negative = dict(signed.mass)
        shift_a = 2 * min(negative[(("0", "0"), ("a", "a"))], negative[(("1", "1"), ("a", "a"))])
        for xs, sign in ((("0", "0"), -1), (("1", "1"), -1), (("1", "0"), 1), (("0", "1"), 1)):
            negative[(xs, ("a", "a"))] = negative.get((xs, ("a", "a")), Q(0)) + sign * shift_a
        cases = [
            (coupling, {**mass, t1: mass[t1] - shift, t2: mass[t2] + shift},
             "source 1 marginal mismatch at ('0', 'a')"),
            (coupling, {key: q / 2 for key, q in mass.items()}, "coupling mass sums to 1/2"),
            (signed, negative, "negative mass -1/8 at (('0', '0'), ('a', 'a'))"),
        ]
        for built, fault, message in cases:
            for table in (fault, as_law(fault)):
                with pytest.raises(ConstructionError) as err:
                    dataclasses.replace(built, mass=table).validate()
                assert str(err.value) == message
            tampered = dataclasses.replace(built, mass=as_law(fault))
            assert outcome(tampered.validate) == outcome(reference_simul_validate, tampered)

    @pytest.mark.parametrize("fault, message", [
        ("negative", rf"^negative mass -{RATIONAL} at \("),
        ("halved", r"^masses sum to 1/2, expected exactly 1$"),
        ("moved", rf"^coordinate \d marginal at '\w' is {RATIONAL}, declared {RATIONAL}$"),
    ])
    def test_coupling_integer_path(self, fault, message):
        for items in (rand_family_tau_max2_le1(random.Random(5), 3, 3),
                      parse_pmf_file((WIDE_FIXTURES / "pmfs_n4.json").read_text(encoding="utf-8"))):
            coupling = (n4_mixture(n4_ingredients(items)).coupling() if len(items) == 4
                        else interval_coupling_of(items)())
            m, symbols = coupling.arity, coupling.alphabet
            table = perturbed_masses(coupling.mass, itertools.product(symbols, repeat=m))[fault]
            refusals = set()
            for mass in (table, as_law(table)):
                with pytest.raises(LeakboundError, match=message) as err:
                    Coupling(symbols, m, mass, coupling.law)
                refusals.add(str(err.value))
            assert len(refusals) == 1


@pytest.mark.parametrize("dump", [False, True])
def test_couple_simul_reads_masses_only_to_dump(dump, capsys, monkeypatch):
    # couple --mode simul prints the support size, the y-union mass and f
    # off the numerators: a listed mass is read (one Fraction built) only
    # for --dump, once per printed tuple.
    reads = Counter()
    read = ExactLaw.__getitem__

    def counted(law, cell):
        reads[id(law)] += 1
        return read(law, cell)

    monkeypatch.setattr(ExactLaw, "__getitem__", counted)
    path = str(WIDE_FIXTURES / "coprime_joints.json")
    assert main(["couple", path, "--mode", "simul"] + ["--dump"] * dump) == 0
    out = capsys.readouterr().out
    assert "support size = 32 " in out
    assert sum(reads.values()) == (32 if dump else 0)
