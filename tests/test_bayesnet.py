"""Network validation, ordering, and exact inference."""

import fractions
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from helpers import (
    chain_net,
    diamond_net,
    rand_net,
    reference_doeblin,
    reference_tau_max,
    reference_tau_max2,
    refuse_pmf,
)

from leakbound import (
    CapacityError,
    DiscreteChannel,
    LeakboundError,
    Pmf,
    composite_channel,
    joint_distribution,
    tau_max,
    topological_sort,
    validate,
)
from leakbound.bayesnet import BayesNet, NodeSpec, composite_joints
from leakbound.measures import doeblin, tau_max2
from leakbound.netfile import parse_network

FIXTURES = Path(__file__).parent / "fixtures"


def identity_rows(size):
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


class TestValidate:
    def test_clean_network(self):
        assert validate(chain_net(Q(1, 4), Q(1, 4))) == []

    def test_two_cycle(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("A", 2, ["B"], identity_rows(2)),
                NodeSpec.make("B", 2, ["A"], identity_rows(2)),
            ],
            "X",
        )
        assert any("cycle" in p for p in validate(net))

    def test_bad_row_sum_names_node_and_row(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y", 2, ["X"], [["3/5", "3/10"], ["1/2", "1/2"]]),
            ],
            "X",
        )
        problems = validate(net)
        assert any("Y row 0" in p and "9/10" in p for p in problems)

    def test_row_entries_outside_unit_interval(self):
        rows = [["2", "0"], ["3/2", "-1/2"], ["1/3", "2/3"]]
        net = BayesNet(
            [NodeSpec.make("X", 3), NodeSpec.make("Y", 2, ["X"], rows)], "X"
        )
        assert validate(net) == [
            "node Y row 0: entry outside [0, 1]",
            "node Y row 0: sums to 2",
            "node Y row 1: entry outside [0, 1]",
        ]

    def test_row_count_mismatch(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y", 2, ["X"], [["1/2", "1/2"]]),
            ],
            "X",
        )
        assert any("1 rows, expected 2" in p for p in validate(net))

    def test_unknown_parent_and_missing_rows(self):
        net = BayesNet(
            [NodeSpec.make("X", 2), NodeSpec.make("Y", 2, ["W"], None)],
            "X",
        )
        problems = validate(net)
        assert any("unknown parent" in p for p in problems)
        assert any("missing rows" in p for p in problems)

    def test_source_with_parents(self):
        net = BayesNet(
            [
                NodeSpec.make("Y", 2, [], [["1/2", "1/2"]]),
                NodeSpec.make("X", 2, ["Y"], identity_rows(2)),
            ],
            "X",
        )
        assert any("source" in p for p in validate(net))


NETWORK_FIXTURES = ["chain", "coprime", "coprime3", "coprime4", "diamond", "one_symbol_source",
                    "random1", "random2", "relay", "star5", "wide_v4"]


class TestCpt:
    """``BayesNet.cpt`` reads a node's rows straight into an integer law."""

    @pytest.mark.parametrize("name", NETWORK_FIXTURES)
    def test_is_the_channel_of_its_pmf_rows(self, name):
        # The same den, the same columns in the same order (first
        # appearance, row by row) and the same rows as the channel of the
        # node's rows built as Pmfs.
        net = parse_network((FIXTURES / f"{name}.json").read_text())
        for node in net.nodes:
            if node.node_id == net.source:
                continue
            cpt = net.cpt(node.node_id)
            rows = tuple(Pmf.from_values(row, node.alphabet) for row in node.rows)
            want = DiscreteChannel(rows, net.parent_configs(node.node_id))
            assert cpt.den == want.den
            assert list(cpt.columns.items()) == list(want.columns.items())
            assert cpt == want and cpt.rows == rows

    @staticmethod
    def refusal(rows):
        """The message ``cpt`` refuses Y's rows with, ``validate`` not run."""
        net = BayesNet([NodeSpec.make("X", 2), NodeSpec.make("Y", 2, ["X"], rows)], "X")
        with pytest.raises(LeakboundError) as err:
            net.cpt("Y")
        return str(err.value)

    def test_short_row_refused(self):
        assert self.refusal([["1/2", "1/2"], ["1"]]) == "row has 1 entries for alphabet of size 2"

    def test_negative_entry_refused(self):
        assert self.refusal([["1/2", "1/2"], ["3/2", "-1/2"]]) == "negative mass -1/2 at '1'"

    def test_bad_row_sum_refused(self):
        message = self.refusal([["1/2", "1/2"], ["3/5", "3/10"]])
        assert message == "row 1 masses sum to 9/10, expected exactly 1"


class TestTopologicalSort:
    def test_chain(self):
        assert topological_sort(chain_net(Q(0), Q(0))) == ["X", "Y1", "Y2"]

    def test_diamond_order(self):
        order = topological_sort(diamond_net(Q(1, 4)))
        assert order.index("Y1") < order.index("Y2") < order.index("Y3")

    def test_isolated_nodes_stable(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("B", 2, [], [["1/2", "1/2"]]),
                NodeSpec.make("A", 2, [], [["1/2", "1/2"]]),
            ],
            "X",
        )
        assert topological_sort(net) == ["A", "B", "X"]

    def test_cycle_raises(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("A", 2, ["B"], identity_rows(2)),
                NodeSpec.make("B", 2, ["A"], identity_rows(2)),
            ],
            "X",
        )
        with pytest.raises(LeakboundError):
            topological_sort(net)


class TestJointDistribution:
    def test_single_child_reproduces_row(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        single = BayesNet(net.nodes[:2], "X")
        joint = joint_distribution(single, "0")
        assert joint[("0",)] == Q(3, 4) and joint[("1",)] == Q(1, 4)

    def test_identity_chain_point_mass(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y1", 2, ["X"], identity_rows(2)),
                NodeSpec.make("Y2", 2, ["Y1"], identity_rows(2)),
            ],
            "X",
        )
        joint = joint_distribution(net, "1")
        assert joint[("1", "1")] == 1

    def test_random_net_normalizes(self):
        rng = random.Random(60)
        for _ in range(10):
            net = rand_net(rng, n_nodes=4)
            x = net.by_id["X"].alphabet[0]
            joint = joint_distribution(net, x)
            assert sum(joint.values()) == 1

    def test_capacity_guard(self):
        net = rand_net(random.Random(61), n_nodes=5, max_alphabet=3)
        with pytest.raises(CapacityError):
            joint_distribution(net, net.by_id["X"].alphabet[0], max_states=2)


class TestCompositeChannel:
    def test_identity_chain_all_nodes(self):
        net = BayesNet(
            [
                NodeSpec.make("X", 2),
                NodeSpec.make("Y1", 2, ["X"], identity_rows(2)),
                NodeSpec.make("Y2", 2, ["Y1"], identity_rows(2)),
            ],
            "X",
        )
        ch = composite_channel(net, ["Y1", "Y2"])
        assert ch.rows[0][("0", "0")] == 1
        assert ch.rows[1][("1", "1")] == 1
        assert tau_max(ch) == 2

    @pytest.mark.parametrize(
        "d1,d2",
        [(Q(0), Q(0)), (Q(1, 8), Q(1, 4)), (Q(1, 4), Q(1, 4)), (Q(1, 2), Q(3, 8))],
    )
    def test_binary_chain_convolution(self, d1, d2):
        # independent oracle: crossing a BSC(d1) then BSC(d2) is a BSC
        # with crossover d1 (1 - d2) + d2 (1 - d1)
        net = chain_net(d1, d2)
        ch = composite_channel(net, ["Y2"])
        conv = d1 * (1 - d2) + d2 * (1 - d1)
        assert ch.rows[0][("1",)] == conv
        assert ch.rows[1][("0",)] == conv

    def test_marginal_consistency(self):
        rng = random.Random(62)
        for _ in range(8):
            net = rand_net(rng, n_nodes=4)
            ids = [n.node_id for n in net.nodes if n.node_id != "X"]
            big = composite_channel(net, ids)
            small = composite_channel(net, ids[:1])
            # collapse big onto its first coordinate
            for xi, row in enumerate(big.rows):
                collapsed = {}
                for sym, qv in row.items():
                    collapsed[(sym[0],)] = collapsed.get((sym[0],), Q(0)) + qv
                for sym, qv in collapsed.items():
                    assert small.rows[xi][sym] == qv

    def test_target_order_irrelevant(self):
        net = diamond_net(Q(1, 4))
        a = composite_channel(net, ["Y3", "Y1"])
        b = composite_channel(net, ["Y1", "Y3"])
        assert a == b

    def test_source_can_be_a_target(self):
        net = chain_net(Q(1, 4), Q(1, 4))
        ch = composite_channel(net, ["X", "Y1"])
        assert ch.rows[0][("0", "0")] == Q(3, 4)
        assert ch.rows[0][("1", "0")] == 0

    def test_data_processing_monotone(self):
        rng = random.Random(63)
        for _ in range(10):
            net = rand_net(rng, n_nodes=4)
            ids = [n.node_id for n in net.nodes if n.node_id != "X"]
            sub = rng.sample(ids, 2)
            assert tau_max(composite_channel(net, sub[:1])) <= tau_max(
                composite_channel(net, sub)
            )


# Reading a Fraction's numerator or denominator calls a property of the
# fractions module; building one calls __new__. Any other call into it is
# Fraction arithmetic or comparison (_add, _mul, _richcmp, ...).
FRACTION_READS = {"__new__", "numerator", "denominator"}


def test_inference_and_measures_do_no_fraction_arithmetic():
    # The CPTs are validated, the closures enumerated and projected, and
    # the column measures taken on integer numerators over one common
    # denominator; a Fraction is built only for each output value.
    net = parse_network((FIXTURES / "diamond.json").read_text())
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            if frame.f_code.co_name not in FRACTION_READS:
                calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        channel = composite_channel(net, ["Y1", "Y2", "Y3"])
        joints = composite_joints(net, ["Y1", "Y2"], ["Y3"])
        values = [tau_max(channel), tau_max2(channel), doeblin(channel), doeblin(joints)]
    finally:
        sys.setprofile(None)
    assert calls == []
    assert values == [
        reference_tau_max(channel),
        reference_tau_max2(channel),
        reference_doeblin(channel),
        reference_doeblin(joints),
    ]


@pytest.mark.parametrize("name, targets, x_nodes", [
    ("diamond.json", ["Y1", "Y2", "Y3"], ["Y1", "Y2"]),
    ("coprime4.json", ["X", "Y1", "Y2", "Y3"], ["Y1", "Y2"]),
    ("star5.json", ["X", "N1", "N2", "N3"], ["N1"]),
])
def test_inference_builds_no_fraction_until_rows_are_read(name, targets, x_nodes, monkeypatch):
    # With the CPTs built, the channels are made from the enumerated
    # integer numerators: no Fraction and no Pmf until a caller reads rows.
    net = parse_network((FIXTURES / name).read_text())
    for nid in net.node_ids():
        if nid != net.source:
            net.cpt(nid)
    monkeypatch.setattr(Pmf, "__init__", refuse_pmf)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        channel = composite_channel(net, targets)
        joints = composite_joints(net, x_nodes, targets)
    finally:
        sys.setprofile(None)
    assert calls == []
    monkeypatch.undo()
    assert channel.rows[0].alphabet == channel.output_alphabet
    assert joints.rows[0].y_alphabet == joints.axes[1]
