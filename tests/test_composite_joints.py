"""``composite_joints`` against the split of the flat channel it replaced.

A peel step reads both penalties off P_{pa(U),V|X}, one ``JointPmf`` per
source value. The reference, ``helpers.sources_for_coupling``, enumerates
the flat channel P_{V+pa(U)|X} and splits each of its tuples into a
(pa(U), V) cell, with pa(U) in U's declared parent order. Once the
x coordinates are put in declaration order, the two are equal laws, and
the Doeblin and coupling penalties read off them are exactly equal.

Both channels are built from integer numerators (``DiscreteChannel.
from_law``); each must equal the channel of its own ``Pmf`` rows, with
the same denominator and the same columns in the same order.

A peel step projects its closure once, onto these joints, and reads
P_{V|X} off them: the mixture table of the joints decides the V-side
condition on their Y-marginals and builds H from them. That replaces a
second projection, onto P_{V|X}, so the two are checked for exact
equality on every peel step of the fixtures and of seeded nets: each
passed step's table has Y-marginals equal to ``composite_channel(V)``,
with the same den and the same columns in the same order (the interval
route's f depends on that order), each logged V-side check is
``coupling_feasibility`` of P_{V|X}, and each f read off the table is
``coupling_penalty`` of the joints.
"""

import itertools
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from helpers import rand_couplable_net, rand_net, sources_for_coupling

from leakbound import DiscreteChannel, bounds, simultaneous
from leakbound.bayesnet import BayesNet, NodeSpec, composite_channel, composite_joints
from leakbound.errors import CapacityError, LeakboundError, PreconditionError
from leakbound.measures import doeblin
from leakbound.netfile import parse_network
from leakbound.simultaneous import coupling_feasibility, coupling_penalty

FIXTURES = Path(__file__).parent / "fixtures"
ROOMY = 10**7


def peel_plans(net, targets):
    """The plans of the recursion on the targets other than the source,
    and of the single peel, whose V may hold the source."""
    plans = []
    if set(targets) - {net.source}:
        plans.append(bounds._recursive_plan(net, [t for t in targets if t != net.source]))
    plans.append(bounds._single_plan(net, targets))
    return plans


def peel_steps(net, targets):
    """(U, V) of every step of ``peel_plans``."""
    return [(u, v_set) for plan in peel_plans(net, targets) for u, v_set, _ in plan.steps]


def penalty(sources):
    """f of the sources, or the type of the error both routes must raise."""
    try:
        return coupling_penalty(sources)
    except PreconditionError as err:
        return type(err)


def assert_rebuilt_alike(channel):
    """The channel equals the one rebuilt from its rows: same den, same
    columns in the same order, equal rows."""
    rows = channel.rows
    rebuilt = DiscreteChannel(rows, channel.input_alphabet)
    assert rebuilt.den == channel.den
    assert list(rebuilt.columns.items()) == list(channel.columns.items())
    assert rebuilt.rows == rows and rebuilt == channel


def check_step(net, u, v_set):
    parents = net.by_id[u].parents
    joints = composite_joints(net, parents, v_set, ROOMY)
    reference = sources_for_coupling(net, v_set, u, ROOMY)
    position = {nid: k for k, nid in enumerate(net.node_ids())}
    order = sorted(range(len(parents)), key=lambda k: position[parents[k]])

    def declared(z):
        return tuple(z[k] for k in order)

    assert joints.input_alphabet == net.by_id[net.source].alphabet
    assert len(joints.rows) == len(reference)
    for got, want in zip(joints.rows, reference):
        assert got.y_alphabet == want.y_alphabet
        assert sorted(got.x_alphabet) == sorted(map(declared, want.x_alphabet))
        assert got.mass == {(declared(z), v): q for (z, v), q in want.mass.items()}
    flat = composite_channel(net, [*v_set, *parents], max_states=ROOMY)
    assert_rebuilt_alike(joints)
    assert_rebuilt_alike(flat)
    assert doeblin(joints) == doeblin(flat)
    assert penalty(joints.rows) == penalty(reference)


def shapes_net(x_size):
    """X -> A -> B <- X with B's parents declared (A, X); C <- (P, A); P and
    Z parentless. Covers a V holding the source (B over X, A), a
    parentless U (Z over P), and a parent outside V's closure (C over A)."""
    half = [Q(1, 2), Q(1, 2)]
    noisy = [[Q(3, 4), Q(1, 4)], [Q(1, 4), Q(3, 4)]]
    a_rows = [[Q(1 + k, x_size + 2), Q(x_size + 1 - k, x_size + 2)] for k in range(x_size)]
    b_rows = [[Q(1 + k % 3, 4), Q(3 - k % 3, 4)] for k in range(2 * x_size)]
    return BayesNet([
        NodeSpec.make("X", x_size),
        NodeSpec.make("A", 2, ["X"], a_rows),
        NodeSpec.make("B", 2, ["A", "X"], b_rows),
        NodeSpec.make("P", 2, [], [[Q(1, 3), Q(2, 3)]]),
        NodeSpec.make("C", 2, ["P", "A"], noisy * 2),
        NodeSpec.make("Z", 2, [], [half]),
    ], "X")


@pytest.mark.parametrize("x_size", [1, 2, 3])
@pytest.mark.parametrize("targets, step", [
    (["X", "A", "B"], ("B", ["X", "A"])),  # the source inside V
    (["P", "Z"], ("Z", ["P"])),  # a parentless U
    (["A", "C"], ("C", ["A"])),  # pa(C) reaches P, outside V's closure
])
def test_shapes(x_size, targets, step):
    net = shapes_net(x_size)
    assert step in peel_steps(net, targets)
    check_step(net, *step)


@pytest.mark.parametrize(
    "name", ["chain.json", "relay.json", "diamond.json", "random1.json",
             "random2.json", "one_symbol_source.json", "coprime.json", "coprime3.json",
             "coprime4.json", "star5.json"],
)
def test_fixture_nets(name):
    net = parse_network((FIXTURES / name).read_text())
    checked = 0
    for k in range(1, len(net.nodes) + 1):
        for targets in itertools.combinations(net.node_ids(), k):
            assert_rebuilt_alike(composite_channel(net, targets, ROOMY))
            for u, v_set in peel_steps(net, list(targets)):
                check_step(net, u, v_set)
                checked += 1
    assert checked


def test_wide_fixture():
    net = parse_network((FIXTURES / "wide_v4.json").read_text())
    targets = ["X", "N1", "N2", "N3", "N4", "N5", "N6"]
    for u, v_set in peel_steps(net, targets):
        check_step(net, u, v_set)


def test_seeded_nets():
    rng = random.Random(14)
    sizes = set()
    for k in range(40):
        if k % 2:
            net = rand_couplable_net(rng, rng.randrange(3, 7), x_size=rng.choice((2, 3, 4)))
        else:
            net = rand_net(rng, n_nodes=rng.randrange(3, 6), max_alphabet=3)
        targets = rng.sample(net.node_ids(), rng.randrange(2, len(net.nodes) + 1))
        for u, v_set in peel_steps(net, targets):
            check_step(net, u, v_set)
            sizes.add(len(net.by_id[net.source].alphabet))
    assert sizes == {2, 3, 4}


def v_record(net, v_set):
    """The log entry of ``coupling_feasibility`` of P_{V|X}."""
    ok, label, value = coupling_feasibility(composite_channel(net, v_set, max_states=ROOMY))
    name = f"{label} for P_{{{'+'.join(sorted(v_set))}|X}}"
    return (name, "trivial (one row)" if value is None else str(value), ok)


def walk_plans(net, targets):
    """The steps that pass the walk on ``peel_plans``, each checked
    against the two projections it replaces: every logged V-side check is
    that of P_{V|X}, and every passed step's table has the Y-marginals
    P_{V|X}, with den and column order, and the f of its joints."""
    passed = []
    for plan in peel_plans(net, targets):
        checked, log, failure = bounds._walk(net, plan, ROOMY)
        reached = plan.steps[:len(checked) + (failure is not None)]
        for k, (_, v_set, _) in enumerate(reached):
            assert log[2 * k + 1:2 * k + 2] in ([], [v_record(net, v_set)])
        for (step, table), (u, v_set, _) in zip(checked, plan.steps):
            v_channel = composite_channel(net, v_set, max_states=ROOMY)
            y_marginals = table.y_coupling.marginals
            assert y_marginals.den == v_channel.den
            assert list(y_marginals.columns.items()) == list(v_channel.columns.items())
            assert y_marginals == v_channel
            assert step.preconditions[1] == v_record(net, v_set)
            joints = composite_joints(net, net.by_id[u].parents, v_set, ROOMY)
            assert simultaneous._penalty(table) == coupling_penalty(joints)
            passed.append(step)
    return passed


@pytest.mark.parametrize(
    "name", ["chain.json", "relay.json", "diamond.json", "random1.json",
             "random2.json", "one_symbol_source.json", "coprime.json", "coprime3.json",
             "coprime4.json", "star5.json", "wide_v4.json"],
)
def test_kept_y_coupling_on_fixtures(name):
    net = parse_network((FIXTURES / name).read_text())
    nodes = net.node_ids()
    sets = [nodes] if name == "wide_v4.json" else [
        list(targets) for k in range(1, len(nodes) + 1)
        for targets in itertools.combinations(nodes, k)
    ]
    assert sum(len(walk_plans(net, targets)) for targets in sets)


def test_kept_y_coupling_on_seeded_nets():
    rng = random.Random(17)
    seen = set()
    for k in range(150):
        x_size = 1 + k % 5
        if k % 2 and x_size > 1:
            net = rand_couplable_net(rng, rng.randrange(3, 6), x_size=x_size)
        else:
            net = rand_net(rng, n_nodes=rng.randrange(3, 6), max_alphabet=3, x_size=x_size)
        targets = rng.sample(net.node_ids(), rng.randrange(2, len(net.nodes) + 1))
        seen.update((x_size, net.source in step.v_set) for step in walk_plans(net, targets))
    assert {(x, True) for x in range(1, 6)} <= seen


def test_unknown_node_refused():
    net = shapes_net(2)
    with pytest.raises(LeakboundError, match="unknown target node"):
        composite_joints(net, ["A"], ["nope"])


def test_closure_state_guard():
    # The closure of {B} is X, A, B: 4 non-source states, as for the channel.
    net = shapes_net(2)
    with pytest.raises(CapacityError):
        composite_joints(net, ["A"], ["B"], max_states=3)
    assert composite_joints(net, ["A"], ["B"], max_states=4).n == 2
