"""Bound machinery: closed forms, dominance, recursion, worked shapes."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as Q

from pathlib import Path

import pytest
from helpers import (
    bsc_rows,
    chain_net,
    diamond_net,
    outside_parent_net,
    rand_couplable_net,
    rand_net,
    refuse_pmf,
    relay_net,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbound import (
    CapacityError,
    LeakboundError,
    Pmf,
    PreconditionError,
    composite_channel,
    coupling_bound,
    doeblin,
    doeblin_bound,
    exact_tau_max,
    query_report,
    recursive_bound,
    subadditivity_baseline,
    tau_max,
)
from leakbound import bounds, couplings, lp, simultaneous
from leakbound.bayesnet import BayesNet, NodeSpec, validate
from leakbound.measures import log_fraction, tau_max2
from leakbound.netfile import parse_network

DELTAS = [Q(0), Q(1, 8), Q(1, 4), Q(3, 8), Q(1, 2)]
FIXTURE_NETS = ["chain.json", "relay.json", "diamond.json", "random1.json", "random2.json"]


class TestChainClosedForms:
    @pytest.mark.parametrize("d1", DELTAS)
    @pytest.mark.parametrize("d2", DELTAS)
    def test_exact_composite_matches_convolution(self, d1, d2):
        net = chain_net(d1, d2)
        conv = d1 * (1 - d2) + d2 * (1 - d1)
        assert exact_tau_max(net, ["Y2"]) == 2 * (1 - conv)

    @pytest.mark.parametrize("d1", DELTAS)
    @pytest.mark.parametrize("d2", DELTAS)
    def test_doeblin_bound_polynomial(self, d1, d2):
        # From first principles: tau_max(P_Y2|Y1) = 2(1 - d2),
        # tau_max(P_Y1|X) = 2(1 - d1), penalty tau(P_Y1|X) = 2 d1, so
        #   bound = 4(1 - d1)(1 - d2) - (1 - 2 d2) 2 d1
        #         = 4 - 6 d1 - 4 d2 + 8 d1 d2.
        net = chain_net(d1, d2)
        assert doeblin_bound(net, ["Y1"], "Y2") == 4 - 6 * d1 - 4 * d2 + 8 * d1 * d2

    @pytest.mark.parametrize("d2", DELTAS)
    def test_bound_equals_exact_at_half(self, d2):
        # d1 = 1/2 erases X entirely; bound and exact both collapse
        net = chain_net(Q(1, 2), d2)
        exact = exact_tau_max(net, ["Y1", "Y2"])
        assert exact == 1
        assert doeblin_bound(net, ["Y1"], "Y2") == 1

    @pytest.mark.parametrize("d1", DELTAS)
    @pytest.mark.parametrize("d2", DELTAS)
    def test_soundness_on_pair(self, d1, d2):
        net = chain_net(d1, d2)
        exact = exact_tau_max(net, ["Y1", "Y2"])
        assert doeblin_bound(net, ["Y1"], "Y2") >= exact
        assert coupling_bound(net, ["Y1"], "Y2") >= exact


class TestSingleStep:
    def test_constant_u_channel_drops_to_v_term(self):
        # all rows of U's CPT identical: multiplier 1, penalty term zero
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y1", 2, ["X"], bsc_rows(Q(1, 4))),
                NodeSpec.make("Y2", 2, ["Y1"], [["1/2", "1/2"], ["1/2", "1/2"]]),
            ],
            "X",
        )
        tmv = tau_max(composite_channel(net, ["Y1"]))
        assert doeblin_bound(net, ["Y1"], "Y2") == tmv
        assert coupling_bound(net, ["Y1"], "Y2") == tmv

    def test_root_u_contributes_nothing(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y1", 2, ["X"], bsc_rows(Q(1, 4))),
                NodeSpec.make("R", 2, [], [["1/3", "2/3"]]),
            ],
            "X",
        )
        tmv = tau_max(composite_channel(net, ["Y1"]))
        assert doeblin_bound(net, ["Y1"], "R") == tmv
        assert exact_tau_max(net, ["Y1", "R"]) == tmv

    def test_parent_includes_source_vanishing_penalty(self):
        net = diamond_net(Q(1, 4))
        # peeling Y2 against {Y1}: pa(Y2) contains X, so the composite
        # over {Y1, X} has Doeblin coefficient zero
        assert doeblin(composite_channel(net, ["Y1", "X"])) == 0
        bound = doeblin_bound(net, ["Y1"], "Y2")
        u_cpt = net.cpt("Y2")
        tmv = tau_max(composite_channel(net, ["Y1"]))
        assert bound == tau_max(u_cpt) * tmv

    def test_invalid_peel_order_rejected(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        with pytest.raises(LeakboundError):
            doeblin_bound(net, ["Y2"], "Y1")  # path Y1 -> Y2 exists

    @pytest.mark.parametrize("single", [coupling_bound, doeblin_bound])
    def test_unknown_peeled_node_rejected(self, single):
        net = parse_network((Path(__file__).parent / "fixtures" / "chain.json").read_text())
        with pytest.raises(LeakboundError, match="^unknown target node 'nope'$"):
            single(net, ["Y1"], "nope")

    def test_peeled_node_in_v_rejected(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        with pytest.raises(LeakboundError, match="peeled node 'Y2' may not belong to V"):
            coupling_bound(net, ["Y1", "Y2"], "Y2")

    def test_precondition_failure_names_value(self):
        # a three-row V-channel with tau_max2 > 1 cannot be coupled
        net = BayesNet(
            [
                NodeSpec.make("X", 3),
                NodeSpec.make(
                    "Y1",
                    3,
                    ["X"],
                    [["1/2", "1/2", "0"], ["0", "1/2", "1/2"], ["1/2", "0", "1/2"]],
                ),
                NodeSpec.make("Y2", 2, ["Y1"], [["1", "0"], ["0", "1"], ["1", "0"]]),
            ],
            "X",
        )
        with pytest.raises(PreconditionError) as err:
            doeblin_bound(net, ["Y1"], "Y2")
        assert err.value.value == Q(3, 2)

    @pytest.mark.parametrize("single", [coupling_bound, doeblin_bound])
    def test_failed_single_step_has_empty_trace(self, single):
        # Seeded: N2's CPT fails tau_max2 <= 1 (27/16). No step passed
        # before it, so the error's trace is empty, as on every entry.
        rng = random.Random(9)
        net = rand_net(rng, n_nodes=rng.randrange(4, 6), noisy=False)
        with pytest.raises(PreconditionError) as err:
            single(net, ["N1"], "N2")
        assert err.value.condition == "tau_max2(P_{N2|pa}) <= 1"
        assert err.value.value == Q(27, 16) and err.value.trace == ()


class TestFourValuedSourceRelaxedRoute:
    """|X| = 4 accepts V-channels beyond tau_max2 <= 1 when the four-way
    pair-capacity condition holds; the coupling penalty then comes from
    the four-way ingredient."""

    @staticmethod
    def _net(v_rows):
        u_rows = [["3/4", "1/4"], ["1/2", "1/2"], ["1/2", "1/2"], ["1/4", "3/4"]]
        return BayesNet(
            [
                NodeSpec.make("X", 4),
                NodeSpec.make("Y1", 4, ["X"], v_rows),
                NodeSpec.make("Y2", 2, ["Y1"], u_rows),
            ],
            "X",
        )

    def test_couplable_above_one(self):
        # two-disjoint-pairs rows: tau_max2(P_Y1|X) = 2 yet still couplable
        net = self._net(
            [
                ["1/2", "1/2", "0", "0"],
                ["1/2", "1/2", "0", "0"],
                ["0", "0", "1/2", "1/2"],
                ["0", "0", "1/2", "1/2"],
            ]
        )
        from leakbound import tau_max2

        assert tau_max2(composite_channel(net, ["Y1"])) == 2
        exact = exact_tau_max(net, ["Y1", "Y2"])
        cb = coupling_bound(net, ["Y1"], "Y2")
        db = doeblin_bound(net, ["Y1"], "Y2")
        assert exact <= cb <= db

    def test_uncouplable_family_refused(self):
        net = self._net(
            [
                ["1/16", "5/16", "1/2", "1/8"],
                ["1/4", "1/8", "5/16", "5/16"],
                ["5/16", "0", "9/16", "1/8"],
                ["1/16", "1/4", "11/16", "0"],
            ]
        )
        with pytest.raises(PreconditionError):
            coupling_bound(net, ["Y1"], "Y2")
        # the Doeblin variant shares the existence precondition
        with pytest.raises(PreconditionError):
            doeblin_bound(net, ["Y1"], "Y2")


class TestDominance:
    def test_coupling_le_doeblin_le_baseline(self):
        rng = random.Random(70)
        done = 0
        while done < 12:
            net = rand_net(rng, n_nodes=4, max_alphabet=3)
            ids = [n.node_id for n in net.nodes if n.node_id != "X"]
            u = ids[-1]
            v = ids[:-1]
            try:
                cb = coupling_bound(net, v, u)
                db = doeblin_bound(net, v, u)
            except PreconditionError:
                continue
            tmu = tau_max(net.cpt(u))
            tmv = tau_max(composite_channel(net, v))
            exact = exact_tau_max(net, v + [u])
            assert exact <= cb <= db <= tmu * tmv
            done += 1

    def test_strict_improvement_with_positive_penalty(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        db = doeblin_bound(net, ["Y1"], "Y2")
        tmu = tau_max(net.cpt("Y2"))
        tmv = tau_max(composite_channel(net, ["Y1"]))
        assert doeblin(composite_channel(net, ["Y1"])) > 0
        assert db < tmu * tmv

    def test_seeded_nets_with_five_or_six_source_values(self):
        # Every peel step couples |X| = 5 or 6 V-side rows, so the coupling
        # penalty takes the interval Y-coupling.
        rng = random.Random(71)
        passed = tighter = 0
        for _ in range(60):
            net = rand_couplable_net(rng, rng.randrange(3, 7), x_size=rng.choice((5, 6)))
            ids = [nid for nid in net.node_ids() if nid != net.source]
            targets = rng.sample(ids, rng.randrange(2, min(4, len(ids)) + 1))
            report = query_report(net, targets)
            if report.coupling_bound_value is None:
                continue
            passed += 1
            assert (
                report.exact_tau_max <= report.coupling_bound_value
                <= report.doeblin_bound_value <= report.subadditivity_value
            )
            _, trace = recursive_bound(net, targets, "coupling")
            tighter += any(c.penalty > d.penalty for c, d in zip(trace, report.trace))
        assert passed >= 50 and tighter

    def test_zero_penalty_matches_baseline(self):
        net = diamond_net(Q(1, 4))
        db = doeblin_bound(net, ["Y1"], "Y2")
        tmu = tau_max(net.cpt("Y2"))
        tmv = tau_max(composite_channel(net, ["Y1"]))
        assert db == tmu * tmv


@st.composite
def bound_queries(draw):
    """A source X and 2-4 nodes, each with one or two parents among the
    earlier nodes and CPT rows of small integer weights (zeros allowed),
    plus two or more targets, so that the recursion peels."""
    n = draw(st.integers(3, 5))
    sizes = [draw(st.integers(2, 3)) for _ in range(n)]
    nodes = [NodeSpec.make("N0", sizes[0])]
    for k in range(1, n):
        parents = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=2)))
        rows = []
        for _ in range(math.prod(sizes[p] for p in parents)):
            weights = draw(st.lists(st.integers(0, 3), min_size=sizes[k],
                                    max_size=sizes[k]).filter(any))
            rows.append([Q(w, sum(weights)) for w in weights])
        nodes.append(NodeSpec.make(f"N{k}", sizes[k], [f"N{p}" for p in parents], rows))
    targets = draw(st.lists(st.sampled_from([f"N{k}" for k in range(1, n)]),
                            min_size=2, max_size=n - 1, unique=True))
    return BayesNet(nodes, "N0"), targets


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bound_queries())
def test_property_bound_chain(case):
    # exact <= coupling <= doeblin <= baseline among the bounds that apply
    net, targets = case
    report = query_report(net, targets, method="recursive")
    chain = [report.exact_tau_max, report.coupling_bound_value,
             report.doeblin_bound_value, report.subadditivity_value]
    present = [v for v in chain if v is not None]
    assert present == sorted(present)


# A recursive and a coupling query at each source size |X| = 2, 3, 4, 5.
QUERIES_AT_EVERY_X = [
    ("diamond.json", ["Y1", "Y2", "Y3"], "recursive"),
    ("coprime3.json", ["Y1", "Y2", "Y3"], "recursive"),
    ("coprime3.json", ["X", "Y3"], "coupling"),
    ("coprime4.json", ["Y1", "Y2", "Y3"], "recursive"),
    ("coprime4.json", ["X", "Y3"], "coupling"),
    ("star5.json", ["N1", "N2", "N3"], "recursive"),
    ("star5.json", ["X", "N3"], "coupling"),
]


class TestPenaltyWork:
    """Per peel step, the walk decides the V-side condition once, where it
    builds the mixture table of the step's joints P_{pa(U),V|X}, whose
    Y-marginals are P_{V|X}, and the coupling penalty is read off that
    table: at |X| <= 4 no coupling of any kind is listed, and at no |X| is
    an LP solved."""

    @staticmethod
    def count(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    @pytest.mark.parametrize("x_size", [2, 3, 4, 5])
    def test_calls_per_peel_step(self, monkeypatch, x_size):
        net = rand_couplable_net(random.Random(0), 5, x_size=x_size)
        targets = [nid for nid in net.node_ids() if nid != net.source]
        counts = Counter()
        for module, name in [
            (couplings, "n4_ingredients"),
            (couplings, "n4_condition"),
            (simultaneous, "n4_ingredients"),
            (simultaneous, "coupling_feasibility"),
            (simultaneous, "minimal_y_coupling"),
            (simultaneous, "build_simultaneous_coupling"),
            (simultaneous, "_minimal_parts"),
            (simultaneous, "n4_mixture"),
            (simultaneous, "_interval_parts"),
            (lp, "solve_sparse"),
        ]:
            self.count(monkeypatch, module, name, counts)
        report = query_report(net, targets)
        steps = len(report.trace)
        assert steps == 3 and report.coupling_bound_value is not None
        assert counts["_minimal_parts"] == steps
        assert counts["coupling_feasibility"] == counts["n4_condition"] == 0
        assert counts["minimal_y_coupling"] == 0
        assert counts["build_simultaneous_coupling"] == counts["solve_sparse"] == 0
        if x_size == 4:
            # One ingredients pass per step, for the condition and the
            # Y-coupling both.
            assert counts["n4_ingredients"] == steps
            assert counts["n4_mixture"] == steps and counts["_interval_parts"] == 0
        else:
            assert counts["n4_ingredients"] == counts["n4_mixture"] == 0
            assert counts["_interval_parts"] == steps

    @staticmethod
    def query_without_pmf(monkeypatch, name, targets, method, warm):
        """The report with ``Pmf.__init__`` refused equals the one built
        freely; ``warm`` builds every CPT before the refusal."""
        text = (Path(__file__).parent / "fixtures" / name).read_text()
        want = query_report(parse_network(text), targets, method)
        net = parse_network(text)
        if warm:
            for nid in net.node_ids():
                if nid != net.source:
                    net.cpt(nid)
        monkeypatch.setattr(Pmf, "__init__", refuse_pmf)
        got = query_report(net, targets, method)
        monkeypatch.undo()
        assert got == want and got.coupling_bound_value is not None

    @pytest.mark.parametrize("name, targets, method", QUERIES_AT_EVERY_X)
    def test_warm_query_builds_no_pmf(self, monkeypatch, name, targets, method):
        # Once the CPTs are built, inference, the measures, the V-side
        # condition and both penalties run on the channels' integer laws at
        # |X| = 2, 3, 4 and 5: no Pmf row is built for any channel.
        self.query_without_pmf(monkeypatch, name, targets, method, warm=True)

    @pytest.mark.parametrize("name, targets, method", QUERIES_AT_EVERY_X)
    def test_cold_query_builds_no_pmf(self, monkeypatch, name, targets, method):
        # The CPTs are read from the file's rows into integer laws, so a
        # query on a freshly parsed network builds no Pmf either.
        self.query_without_pmf(monkeypatch, name, targets, method, warm=False)

    def test_inference_calls_per_peel_step(self, monkeypatch):
        # One composite_channel call, for the exact value; a step's V-side
        # condition and both its penalties read its one composite_joints
        # channel, whose Y-marginals are P_{V|X}.
        net = rand_couplable_net(random.Random(0), 5, x_size=3)
        targets = [nid for nid in net.node_ids() if nid != net.source]
        counts = Counter()
        for name in ("composite_channel", "composite_joints"):
            self.count(monkeypatch, bounds, name, counts)
        steps = len(query_report(net, targets).trace)
        assert steps == 3
        assert counts["composite_channel"] == 1
        assert counts["composite_joints"] == steps

    @pytest.mark.parametrize("x_size", [2, 3, 4])
    def test_no_coupling_is_built(self, monkeypatch, x_size):
        # The penalty lists no Y-tuple, so no ``Coupling`` is validated.
        rng = random.Random(x_size)
        counts = Counter()
        self.count(monkeypatch, couplings.Coupling, "__init__", counts)
        steps = 0
        for _ in range(15):
            net = rand_couplable_net(rng, rng.randrange(3, 7), x_size=x_size)
            targets = [nid for nid in net.node_ids() if nid != net.source]
            report = query_report(net, targets)
            if report.coupling_bound_value is not None:
                steps += len(report.trace)
        assert steps > 0 and counts["__init__"] == 0


class TestRecursive:
    def test_singleton_is_exact(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        value, trace = recursive_bound(net, ["Y2"])
        assert trace == ()
        assert value == exact_tau_max(net, ["Y2"])

    def test_two_step_diamond_composition(self):
        net = diamond_net(Q(1, 4))
        value, trace = recursive_bound(net, ["Y1", "Y2", "Y3"])
        assert [s.u for s in trace] == ["Y3", "Y2"]
        # manual composition of the two peel formulas
        tm3 = tau_max(net.cpt("Y3"))
        tm2 = tau_max(net.cpt("Y2"))
        tm1 = tau_max(composite_channel(net, ["Y1"]))
        inner = tm2 * tm1  # second peel has a vanishing penalty
        pen = doeblin(composite_channel(net, ["Y1", "Y2"]))
        assert value == tm3 * inner - (tm3 - 1) * pen
        assert value >= exact_tau_max(net, ["Y1", "Y2", "Y3"])

    def test_relay_adjoins_middle_node(self):
        net = relay_net(Q(1, 4))
        value, trace = recursive_bound(net, ["Y1", "Y2"])
        assert trace[0].u == "Y2"
        assert trace[0].adjoined == ("Z",)
        assert value >= exact_tau_max(net, ["Y1", "Y2"])

    def test_coupling_method_never_looser(self):
        rng = random.Random(71)
        done = 0
        while done < 8:
            net = rand_net(rng, n_nodes=4, max_alphabet=2)
            ids = [n.node_id for n in net.nodes if n.node_id != "X"]
            try:
                vc, _ = recursive_bound(net, ids, "coupling")
                vd, _ = recursive_bound(net, ids, "doeblin")
            except PreconditionError:
                continue
            assert vc <= vd
            assert vc >= exact_tau_max(net, ids)
            done += 1

    def test_baseline_dominates(self):
        rng = random.Random(72)
        done = 0
        while done < 8:
            net = rand_net(rng, n_nodes=4, max_alphabet=3)
            ids = [n.node_id for n in net.nodes if n.node_id != "X"]
            try:
                vd, _ = recursive_bound(net, ids, "doeblin")
            except PreconditionError:
                continue
            assert vd <= subadditivity_baseline(net, ids)
            done += 1

    def test_precondition_failure_carries_partial_trace(self):
        # first peel (Y3) passes: |X| = 2 keeps the V-side couplable and
        # Y3's CPT is benign; second peel fails on Y2's three-cycle CPT
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y1", 3, ["X"], [["1/2", "1/2", "0"], ["0", "1/2", "1/2"]]),
                NodeSpec.make(
                    "Y2",
                    3,
                    ["Y1"],
                    [["1/2", "1/2", "0"], ["0", "1/2", "1/2"], ["1/2", "0", "1/2"]],
                ),
                NodeSpec.make("Y3", 2, ["Y2"], [["1", "0"], ["0", "1"], ["1", "0"]]),
            ],
            "X",
        )
        with pytest.raises(PreconditionError) as err:
            recursive_bound(net, ["Y1", "Y2", "Y3"])
        assert hasattr(err.value, "trace")
        assert [s.u for s in err.value.trace] == ["Y3"]

    def test_source_not_a_target(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        with pytest.raises(LeakboundError):
            recursive_bound(net, ["X", "Y1"])

    def test_source_alone_not_a_target(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        for call in (
            lambda: recursive_bound(net, ["X"]),
            lambda: subadditivity_baseline(net, ["X"]),
            lambda: query_report(net, ["X"]),
        ):
            with pytest.raises(LeakboundError, match="source cannot be a bound target"):
                call()


class TestQueryReport:
    def test_recursive_report_complete(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        report = query_report(net, ["Y1", "Y2"])
        assert report.exact_tau_max == Q(3, 2)
        assert report.doeblin_bound_value == 2
        assert report.coupling_bound_value == 2
        assert report.subadditivity_value == Q(9, 4)
        assert report.gap("doeblin_bound") == Q(1, 2)

    def test_singleton_zero_peels(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        report = query_report(net, ["Y2"])
        assert (
            report.exact_tau_max
            == report.doeblin_bound_value
            == report.coupling_bound_value
            == report.subadditivity_value
        )

    @pytest.mark.parametrize("method", ["coupling", "doeblin"])
    def test_single_peel_accepts_the_source(self, method):
        net = chain_net(Q(1, 4), Q(1, 4))
        alone = query_report(net, ["X"], method)
        assert alone.exact_tau_max == 2 and alone.trace == ()
        assert alone.coupling_bound_value == alone.doeblin_bound_value == 2
        # Inside V the source stays: Y2 is peeled off V = {X, Y1}.
        report = query_report(net, ["Y2", "X", "Y1"], method)
        assert report.trace[0].u == "Y2" and report.trace[0].v_set == ("X", "Y1")

    @pytest.mark.parametrize("name", ["", "Z"])
    def test_single_peel_takes_any_node_id(self, name):
        # A node whose id is the empty string is peeled like any other.
        doc = {"format_version": 1, "source": "X", "nodes": [
            {"id": "X", "alphabet": 2, "parents": []},
            {"id": "Y", "alphabet": 2, "parents": ["X"], "cpt": [["3/4", "1/4"], ["1/4", "3/4"]]},
            {"id": name, "alphabet": 2, "parents": ["Y"], "cpt": [["2/3", "1/3"], ["1/3", "2/3"]]},
        ]}
        net = parse_network(json.dumps(doc))
        assert validate(net) == []
        report = query_report(net, ["Y", name], method="coupling")
        assert [(step.u, step.v_set) for step in report.trace] == [(name, ("Y",))]
        assert report.exact_tau_max == Q(3, 2)
        assert report.coupling_bound_value == Q(11, 6)
        assert report.subadditivity_value == 2

    def test_unknown_method_checked_first(self, monkeypatch):
        # The method is refused before any inference, so the one-state
        # limit that the exact value would exceed is never reached.
        net = chain_net(Q(1, 4), Q(1, 4))
        monkeypatch.setattr(bounds, "composite_channel", None)
        with pytest.raises(LeakboundError) as err:
            query_report(net, ["Y1", "Y2"], method="bogus", max_states=1)
        assert type(err.value) is LeakboundError
        assert str(err.value) == "unknown method 'bogus'"

    def test_query_lists_each_target_once(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        for method in ("recursive", "coupling", "doeblin"):
            report = query_report(net, ["Y2", "Y1", "Y2"], method)
            assert report.query == f"X -> {{Y1, Y2}} [{method}]"
        assert query_report(net, ["Y1", "Y1"]).query == "X -> {Y1} [recursive]"

    def test_inapplicable_still_reports_exact(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 3),
                NodeSpec.make(
                    "Y1",
                    3,
                    ["X"],
                    [["1/2", "1/2", "0"], ["0", "1/2", "1/2"], ["1/2", "0", "1/2"]],
                ),
                NodeSpec.make("Y2", 2, ["Y1"], [["1", "0"], ["0", "1"], ["1", "0"]]),
            ],
            "X",
        )
        report = query_report(net, ["Y1", "Y2"], method="doeblin")
        assert report.doeblin_bound_value is None
        assert report.exact_tau_max is not None
        assert any(not ok for _, _, ok in report.precondition_log)


def separate_calls(net, targets):
    """The recursive report assembled from three separate recursions on a
    fresh copy of the net: (coupling, doeblin, baseline, log, trace). On a
    failure, the log holds the checks of the steps that passed, then the
    failing step's own U check if it is its V check that failed, then the
    failed check."""
    net = BayesNet(net.nodes, net.source)
    coupling = doeblin_value = baseline = None
    log, trace = [], ()
    try:
        doeblin_value, trace = recursive_bound(net, targets, "doeblin")
        coupling, _ = recursive_bound(net, targets, "coupling")
        baseline = subadditivity_baseline(net, targets)
        for step in trace:
            log.extend(step.preconditions)
    except PreconditionError as err:
        trace = err.trace
        log = [record for step in trace for record in step.preconditions]
        u = bounds._recursive_plan(net, targets).steps[len(trace)][0]
        u_check = f"tau_max2(P_{{{u}|pa}}) <= 1"
        if err.condition != u_check:
            cpt = net.cpt(u)
            log.append((u_check, str(tau_max2(cpt)) if cpt.n > 1 else "trivial (one row)", True))
        log.append((err.condition, str(err.value), False))
    return coupling, doeblin_value, baseline, tuple(log), trace


def walked(net, targets):
    report = query_report(net, targets, "recursive")
    return (
        report.coupling_bound_value,
        report.doeblin_bound_value,
        report.subadditivity_value,
        report.precondition_log,
        report.trace,
    )


class TestSingleWalk:
    """query_report walks the peel plan once; it must agree with the
    three recursions it replaces."""

    @pytest.mark.parametrize(
        "name,targets",
        [
            ("chain.json", ["Y1", "Y2"]),
            ("relay.json", ["Y1", "Y2"]),
            ("diamond.json", ["Y1", "Y2", "Y3"]),
            ("random1.json", ["N2", "N3"]),
            ("random2.json", ["N2", "N3"]),
        ],
    )
    def test_fixtures(self, name, targets):
        net = parse_network((Path(__file__).parent / "fixtures" / name).read_text())
        assert walked(net, targets) == separate_calls(net, targets)

    def test_seeded_couplable_nets(self):
        rng = random.Random(91)
        peeled = 0
        for _ in range(200):
            net = rand_couplable_net(rng, rng.randrange(3, 7))
            ids = [nid for nid in net.node_ids() if nid != net.source]
            targets = rng.sample(ids, rng.randrange(2, min(4, len(ids)) + 1))
            got = walked(net, targets)
            assert got == separate_calls(net, targets)
            peeled += len(got[4])
        assert peeled >= 200

    def test_precondition_failures(self):
        # A failed report keeps every check made, the failed one last, and
        # the steps that passed before it: two checks each.
        rng = random.Random(92)
        failed = Counter()
        for _ in range(60):
            net = rand_net(rng, n_nodes=rng.randrange(3, 6), noisy=False)
            ids = [nid for nid in net.node_ids() if nid != net.source]
            targets = rng.sample(ids, rng.randrange(2, len(ids) + 1))
            got = walked(net, targets)
            assert got == separate_calls(net, targets)
            if got[0] is None:
                *passed, (_, _, ok) = got[3]
                assert got[1] is None and got[2] is None and not ok
                assert all(ok for _, _, ok in passed)
                assert len(passed) - 2 * len(got[4]) in (0, 1)
                failed["first step" if not got[4] else "later step"] += 1
                failed["after its U check"] += len(passed) % 2
        assert failed["first step"] >= 5
        assert failed["later step"] and failed["after its U check"]


class TestOneRoute:
    """Every entry checks the whole peel plan before any penalty is
    computed, and orders the targets once per query."""

    @staticmethod
    def error_order_net():
        # Found by seeded search: the first peel (N4 off {N1, N2, N3})
        # passes its checks, with m = |X| = 5 copies of an 8-symbol V (a
        # coupling LP over them would need 32,776 variables); the second
        # peel fails tau_max2(P_{N3|pa}) <= 1. Inference fits 16 states.
        rng = random.Random(98)
        n_nodes = rng.randrange(4, 6)
        noisy = rng.random() < 0.5
        return rand_net(rng, n_nodes=n_nodes, max_alphabet=2, x_size=5, noisy=noisy)

    def test_precondition_wins_over_coupling_capacity(self):
        net = self.error_order_net()
        targets = ["N1", "N2", "N3", "N4"]
        with pytest.raises(PreconditionError) as err:
            recursive_bound(net, targets, "coupling", max_states=16)
        assert [s.u for s in err.value.trace] == ["N4"]
        report = query_report(net, targets, max_states=16)
        assert report.trace == err.value.trace
        assert report.precondition_log == err.value.trace[0].preconditions + (
            (err.value.condition, str(err.value.value), False),
        )
        # The first step alone has a coupling bound: its m = 5 Y-coupling
        # is the interval coupling, which no LP variable limit refuses.
        first = err.value.trace[0]
        v_set = list(first.v_set)
        value = coupling_bound(net, v_set, first.u, max_states=16)
        exact = exact_tau_max(net, v_set + [first.u], max_states=16)
        assert exact <= value <= doeblin_bound(net, v_set, first.u, max_states=16)

    @pytest.mark.parametrize("single", [coupling_bound, doeblin_bound])
    def test_joints_closure_is_projected_before_the_checks(self, single):
        # A step projects closure(pa(U) + V) before it logs a check. When
        # pa(U) leaves V + {X}, that closure can be larger than V's: peeling
        # C off {A} needs 6 joint states, so under a limit of 4 the
        # capacity error comes before C's failing U check.
        net = outside_parent_net()
        with pytest.raises(CapacityError) as err:
            single(net, ["A"], "C", max_states=4)
        assert (err.value.requested, err.value.limit) == (6, 4)
        with pytest.raises(PreconditionError) as err:
            single(net, ["A"], "C", max_states=6)
        assert (err.value.condition, err.value.value) == ("tau_max2(P_{C|pa}) <= 1", Q(3, 2))

    def test_plans_keep_their_closures(self):
        # A recursive step adjoins pa(U), so its joints share V's closure:
        # peeling C off {B} fits 3 states and fails on C's U check. A
        # report projects the exact value's closure first, here {X, A, B,
        # C} with 18 states, whose capacity error the joints cannot precede.
        net = outside_parent_net()
        with pytest.raises(PreconditionError) as err:
            recursive_bound(net, ["B", "C"], "coupling", max_states=3)
        assert err.value.condition == "tau_max2(P_{C|pa}) <= 1"
        for method in ("recursive", "coupling", "doeblin"):
            with pytest.raises(CapacityError) as err:
                query_report(net, ["A", "C"], method, max_states=17)
            assert (err.value.requested, err.value.limit) == (18, 17)
        report = query_report(net, ["A", "C"], "coupling", max_states=18)
        assert report.coupling_bound_value is None
        assert report.precondition_log == (("tau_max2(P_{C|pa}) <= 1", "3/2", False),)

    def test_error_trace_carries_doeblin_penalty(self):
        # Seeded: the first peel passes, with f = 1176649853/1788337920
        # above its Doeblin coefficient 11/128; a later peel fails.
        rng = random.Random(9)
        net = rand_net(rng, n_nodes=rng.randrange(4, 6), noisy=False)
        with pytest.raises(PreconditionError) as err:
            recursive_bound(net, ["N1", "N2", "N3", "N4"], "coupling")
        step = err.value.trace[0]
        w = composite_channel(net, list(step.v_set) + list(net.by_id[step.u].parents))
        assert step.penalty == doeblin(w) == Q(11, 128)

    def test_one_topological_sort_per_query(self, monkeypatch):
        net = rand_couplable_net(random.Random(0), 5, x_size=3)
        targets = [nid for nid in net.node_ids() if nid != net.source]
        calls = Counter()
        original = bounds.topological_sort

        def counting(net):
            calls["sort"] += 1
            return original(net)

        monkeypatch.setattr(bounds, "topological_sort", counting)
        for method in ("recursive", "coupling", "doeblin"):
            report = query_report(net, targets, method)
            assert report.trace and calls.pop("sort") == 1
        for method in ("doeblin", "coupling", "baseline"):
            _, trace = recursive_bound(net, targets, method)
            assert len(trace) == 3 and calls.pop("sort") == 1


def log_form(report):
    """(tau_max_u, tau_max_v, correction) of a single-peel report: the
    Doeblin bound reads tmu * tmv * correction, whose logarithm is
    L(X -> V) + L(pa(U) -> U) + log(correction)."""
    (step,) = report.trace
    tmu = step.tau_max_u
    tmv = report.subadditivity_value / tmu
    return tmu, tmv, 1 - (tmu - 1) / tmu * step.penalty / tmv


def log_form_value(report):
    return sum(log_fraction(q) for q in log_form(report))


class TestRelayReport:
    """The relay X -> Y1, {X, Y1} -> Z, Z -> Y2, queried as X -> (Y1, Y2)
    with one Doeblin peel of Y2 against V = {Y1}."""

    def test_quarter_noise_values(self):
        net = relay_net(Q(1, 4))
        report = query_report(net, ["Y1", "Y2"], "doeblin")
        # tau_max factors are both 3/2 and tau(P_{Y1,Z|X}) = 1/2:
        # 9/4 - (1/2)(1/2) = 2
        assert report.doeblin_bound_value == 2
        assert report.subadditivity_value == Q(9, 4)
        assert report.exact_tau_max <= 2
        assert log_form_value(report) == pytest.approx(math.log(2.0))

    def test_constant_last_channel_reduces_to_first_leg(self):
        net = relay_net(Q(1, 4))
        nodes = [
            n if n.node_id != "Y2"
            else NodeSpec.make("Y2", 2, ["Z"], [["1/2", "1/2"], ["1/2", "1/2"]])
            for n in net.nodes
        ]
        report = query_report(BayesNet(nodes, "X"), ["Y1", "Y2"], "doeblin")
        assert report.doeblin_bound_value == tau_max(
            composite_channel(net, ["Y1"])
        )
        assert log_form_value(report) == pytest.approx(math.log(1.5))

    def test_soundness_across_noise_levels(self):
        for d in DELTAS[1:]:
            report = query_report(relay_net(d), ["Y1", "Y2"], "doeblin")
            assert report.doeblin_bound_value >= report.exact_tau_max
            assert report.subadditivity_value >= report.doeblin_bound_value


class TestLogForm:
    """Every single-peel Doeblin report factors exactly as
    tau_max_u * tau_max_v * (1 - (tau_max_u - 1)/tau_max_u * penalty/tau_max_v)."""

    @staticmethod
    def check(net, targets):
        report = query_report(net, targets, "doeblin")
        if report.doeblin_bound_value is None:
            return 0
        tmu, tmv, correction = log_form(report)
        assert tmu * tmv * correction == report.doeblin_bound_value
        return 1

    @pytest.mark.parametrize("name", FIXTURE_NETS)
    def test_fixtures(self, name):
        net = parse_network((Path(__file__).parent / "fixtures" / name).read_text())
        ids = [nid for nid in net.node_ids() if nid != net.source]
        checked = sum(
            self.check(net, list(targets))
            for k in range(2, len(ids) + 1)
            for targets in itertools.combinations(ids, k)
        )
        assert checked >= 1

    def test_seeded_couplable_nets(self):
        rng = random.Random(93)
        checked = 0
        for _ in range(100):
            net = rand_couplable_net(rng, rng.randrange(3, 7))
            ids = [nid for nid in net.node_ids() if nid != net.source]
            checked += self.check(net, rng.sample(ids, rng.randrange(2, len(ids) + 1)))
        assert checked >= 80


class TestDiamondReport:
    """The diamond X -> Y1, {X, Y1} -> Y2, {Y1, Y2} -> Y3, queried as
    X -> (Y1, Y2, Y3) with the full recursive peel."""

    def test_two_peel_matches_recursive(self):
        net = diamond_net(Q(1, 4))
        report = query_report(net, ["Y1", "Y2", "Y3"])
        value, _ = recursive_bound(net, ["Y1", "Y2", "Y3"])
        assert report.doeblin_bound_value == value
        assert report.exact_tau_max <= value <= report.subadditivity_value
        # the second peel's parent set contains X, so its penalty vanishes
        assert report.trace[1].penalty == 0

    def test_deterministic_channels_collapse(self):
        net = diamond_net(Q(0))
        report = query_report(net, ["Y1", "Y2", "Y3"])
        assert report.exact_tau_max == 2
        assert (
            report.exact_tau_max
            <= report.doeblin_bound_value
            <= report.subadditivity_value
        )
        assert report.trace[1].penalty == 0
