"""Query-scoped inference against the whole-network oracle.

``composite_channel`` enumerates only the ancestral closure of its
targets, on integer numerators, and memoizes each closure joint on the
net. The oracle here enumerates the joint of every non-source node with
the Fraction enumerator it replaced (``reference_joint_distribution``) on
a fresh copy of the net and marginalizes it in the test; the two must
agree exactly. ``joint_distribution`` itself is compared with the same
reference.
"""

import math
import random
from contextlib import suppress
from fractions import Fraction as Q
from itertools import combinations, product
from pathlib import Path

import pytest
from helpers import (
    rand_couplable_net,
    rand_net,
    reference_joint_distribution,
    wide_net,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbound import (
    CapacityError,
    DiscreteChannel,
    Pmf,
    PreconditionError,
    composite_channel,
    composite_joints,
    joint_distribution,
    query_report,
    recursive_bound,
)
from leakbound import bayesnet
from leakbound.bayesnet import BayesNet, NodeSpec, ancestral_closure
from leakbound.netfile import parse_network

FIXTURES = Path(__file__).parent / "fixtures"
NETWORKS = ["chain.json", "relay.json", "diamond.json", "random1.json", "random2.json"]
TEMPLATES = ["chain_template.json", "relay_template.json"]
EXTRA_NETWORKS = [
    "coprime.json", "coprime3.json", "coprime4.json", "one_symbol_source.json",
    "outside_zeros.json", "star5.json", "wide_v4.json",
]


def oracle(net: BayesNet, targets) -> DiscreteChannel:
    """P(targets | source) by marginalizing the full joint."""
    full = BayesNet(net.nodes, net.source)
    non_source = [nid for nid in full.node_ids() if nid != full.source]
    ordered = [nid for nid in full.node_ids() if nid in set(targets)]
    out_alphabet = list(product(*(full.by_id[nid].alphabet for nid in ordered)))
    rows = []
    for x in full.by_id[full.source].alphabet:
        mass: dict[tuple, Q] = {}
        for assign, q in reference_joint_distribution(full, x).items():
            value = dict(zip(non_source, assign), **{full.source: x})
            key = tuple(value[nid] for nid in ordered)
            mass[key] = mass.get(key, Q(0)) + q
        rows.append(Pmf(out_alphabet, mass))
    return DiscreteChannel(rows, full.by_id[full.source].alphabet)


def all_target_sets(net: BayesNet):
    ids = net.node_ids()
    for size in range(1, len(ids) + 1):
        yield from combinations(ids, size)


def assert_same_joints(net: BayesNet):
    """joint_distribution equals the Fraction enumerator on every source
    value, including the order in which it lists the support."""
    for x in net.by_id[net.source].alphabet:
        got = joint_distribution(BayesNet(net.nodes, net.source), x)
        want = reference_joint_distribution(BayesNet(net.nodes, net.source), x)
        assert got == want and list(got.mass) == list(want.mass), x


@pytest.mark.parametrize("name", NETWORKS + TEMPLATES)
def test_fixtures_every_target_set(name):
    text = (FIXTURES / name).read_text()
    net = parse_network(text, bindings={"d": Q(1, 8)} if name in TEMPLATES else None)
    assert_same_joints(net)
    for targets in all_target_sets(net):
        assert composite_channel(net, list(targets)) == oracle(net, targets), targets


def test_seeded_networks():
    rng = random.Random(90)
    for k in range(200):
        n_nodes = rng.randrange(3, 8)
        if k % 2:
            net = rand_couplable_net(rng, n_nodes)
        else:
            net = rand_net(rng, n_nodes, noisy=rng.random() < 0.5)
        ids = net.node_ids()
        # several target sets per net, so later ones hit closures memoized
        # by earlier ones; the first and the last also contain the source
        for j in range(4):
            targets = rng.sample(ids[1:], rng.randrange(1, min(4, len(ids) - 1) + 1))
            if j % 3 == 0:
                targets.append(net.source)
            assert composite_channel(net, targets) == oracle(net, targets)
        if k % 10 == 0:
            assert_same_joints(net)


@st.composite
def small_dags(draw):
    """2-5 nodes with random parents among earlier nodes, CPT rows with
    zeros allowed (weights up to 3, or up to 10**6 for large coprime
    denominators), the source any parentless node, and declaration order
    shuffled away from topological order."""
    n = draw(st.integers(2, 5))
    top = draw(st.sampled_from([3, 10**6]))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    parents = [sorted(draw(st.sets(st.integers(0, k - 1), max_size=2))) if k else []
               for k in range(n)]
    roots = [k for k in range(n) if not parents[k]]
    source = draw(st.sampled_from(roots))
    nodes = []
    for k in range(n):
        rows = None
        if k != source:
            n_rows = 1
            for p in parents[k]:
                n_rows *= sizes[p]
            rows = []
            for _ in range(n_rows):
                weights = draw(st.lists(st.integers(0, top), min_size=sizes[k],
                                        max_size=sizes[k]).filter(any))
                rows.append([Q(w, sum(weights)) for w in weights])
        nodes.append(NodeSpec.make(f"N{k}", sizes[k], [f"N{p}" for p in parents[k]], rows))
    order = draw(st.permutations(range(n)))
    net = BayesNet([nodes[k] for k in order], f"N{source}")
    targets = draw(st.lists(st.sampled_from(net.node_ids()), min_size=1, max_size=n))
    return net, targets


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_dags())
def test_property_small_dags(case):
    net, targets = case
    assert composite_channel(net, targets) == oracle(net, targets)
    assert_same_joints(net)


class TestCapacityGuard:
    def test_unrelated_nodes_not_counted(self):
        net = wide_net()
        channel = composite_channel(net, ["Y"])
        assert channel.rows[0][("0",)] == Q(3, 4)
        assert channel.rows[1][("0",)] == Q(1, 4)
        # the whole-net joint is still refused: 2 * 3**12 > 10**6
        with pytest.raises(CapacityError) as err:
            joint_distribution(net, "0")
        assert err.value.requested == 1_062_882

    def test_large_closure_refused(self):
        net = wide_net()
        with pytest.raises(CapacityError):
            composite_channel(net, ["Y"] + [f"C{k}" for k in range(14)])

    def test_memoized_closure_still_guarded(self):
        net = wide_net()
        targets = ["Y", "C0", "C1"]
        first = composite_channel(net, targets)  # 18 closure states, memoized
        with pytest.raises(CapacityError):
            composite_channel(net, targets, max_states=17)
        assert composite_channel(net, targets, max_states=18) == first


class TestOneWalkPerClosure:
    """The enumerator walks each ancestral closure once, for every source
    value at once; each later projection of it, or of a closure inside
    it, reads the memo."""

    @staticmethod
    def spy(monkeypatch, name, closure_of):
        """Record the closure of every call of ``bayesnet.<name>``."""
        seen, real = [], getattr(bayesnet, name)

        def wrapped(net, nodes, *rest):
            seen.append(closure_of(net, nodes))
            return real(net, nodes, *rest)

        monkeypatch.setattr(bayesnet, name, wrapped)
        return seen

    def test_recursive_query_walks_each_closure_once(self, monkeypatch):
        # A report walks one closure, its targets', for the exact value it
        # asks for first; every step's joints lie inside it. recursive_bound
        # asks for its steps' closures before its final set's, and walks
        # none twice.
        walked = self.spy(monkeypatch, "_enumerate", lambda net, closure: closure)
        asked = self.spy(monkeypatch, "_projected", ancestral_closure)
        rng, inner = random.Random(18), 0
        for _ in range(40):
            net = rand_couplable_net(rng, rng.randrange(4, 9))
            ids = net.node_ids()
            targets = rng.sample(ids[1:], rng.randrange(2, min(4, len(ids) - 1) + 1))
            for query in (query_report, recursive_bound):
                walked.clear()
                asked.clear()
                with suppress(PreconditionError):  # a failed step ends the walk
                    query(BayesNet(net.nodes, net.source), targets)
                if query is query_report:
                    assert walked == [ancestral_closure(net, targets)], targets
                assert len(set(walked)) == len(walked), targets
                assert all(any(set(c) <= set(w) for w in walked) for c in asked), targets
                inner += sum(c not in walked for c in asked)
        assert inner > 0  # some projections were read from a larger closure

    def test_joint_distribution_after_the_channel_walks_nothing(self, monkeypatch):
        walked = self.spy(monkeypatch, "_enumerate", lambda net, closure: closure)
        rng = random.Random(19)
        nets = [parse_network((FIXTURES / name).read_text()) for name in NETWORKS]
        nets += [rand_couplable_net(rng, rng.randrange(3, 8)) for _ in range(20)]
        for net in nets:
            walked.clear()
            non_source = [nid for nid in net.node_ids() if nid != net.source]
            channel = composite_channel(net, non_source)
            assert len(walked) == 1
            for x, row in zip(net.by_id[net.source].alphabet, channel.rows):
                assert joint_distribution(net, x).mass == row.mass
            assert len(walked) == 1


def _reduced(den: int, columns: dict) -> tuple[int, dict]:
    """(den, columns) divided by their gcd, as ``from_law`` keeps them."""
    common = math.gcd(den, *(q for col in columns.values() for q in col))
    return den // common, {cell: [q // common for q in col] for cell, col in columns.items()}


class TestProjectionFromALargerClosure:
    """A projection read off a memoized closure that holds its own closure
    is the projection of its own walk: the same reduced den and columns,
    in the same column order, which the interval layout, and so f,
    follow."""

    @pytest.fixture
    def served(self, monkeypatch):
        """Check every projection that was read from a larger closure
        against a fresh net's own walk; count them."""
        count, real = [0], bayesnet._projected

        def wrapped(net, nodes, max_states):
            den, columns = real(net, nodes, max_states)
            if ("joint", ancestral_closure(net, nodes)) not in net._memo:
                own = real(BayesNet(net.nodes, net.source), nodes, max_states)
                assert _reduced(den, columns) == _reduced(*own), nodes
                assert list(columns) == list(own[1]), nodes
                count[0] += 1
            return den, columns

        monkeypatch.setattr(bayesnet, "_projected", wrapped)
        return count

    @staticmethod
    def project_everything(net: BayesNet, rng: random.Random, queries: int = 4):
        """Reports and recursions on fresh copies of the net, then sampled
        pairs of node sets, and the empty pair, after the whole net's walk,
        so that outside nodes fall anywhere in the walk order."""
        ids = net.node_ids()
        non_source = [nid for nid in ids if nid != net.source]
        for _ in range(queries):
            targets = rng.sample(non_source, rng.randrange(1, len(non_source) + 1))
            for query in (query_report, recursive_bound):
                with suppress(PreconditionError):
                    query(BayesNet(net.nodes, net.source), targets)
        composite_channel(net, non_source)
        subsets = [list(c) for size in range(len(ids) + 1) for c in combinations(ids, size)]
        composite_joints(net, [], [])
        for xs in rng.sample(subsets, min(len(subsets), 12)):
            for ys in rng.sample(subsets, min(len(subsets), 6)):
                composite_joints(net, xs, ys)

    @pytest.mark.parametrize("name", NETWORKS + TEMPLATES + EXTRA_NETWORKS)
    def test_fixtures(self, served, name):
        text = (FIXTURES / name).read_text()
        net = parse_network(text, bindings={"d": Q(1, 8)} if name in TEMPLATES else None)
        self.project_everything(net, random.Random(name))
        assert served[0] > 0

    def test_seeded_networks_with_zero_entries(self, served):
        rng, zeros = random.Random(33), 0
        for k in range(60):
            n_nodes = rng.randrange(3, 8)
            if k % 2:
                net = rand_couplable_net(rng, n_nodes)
            else:
                net = rand_net(rng, n_nodes, noisy=False)
            zeros += any(q == 0 for node in net.nodes for row in node.rows or () for q in row)
            self.project_everything(net, rng)
        assert zeros > 10 and served[0] > 1000
