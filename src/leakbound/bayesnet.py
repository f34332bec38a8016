"""Discrete Bayesian networks with exact rational inference.

A network is a DAG of named nodes, each with a finite alphabet and a
conditional probability table over its parents' product alphabet (rows in
lexicographic parent-value order, parents in their declared order). One
node is designated the query source; it carries no distribution of its
own, since leakage quantities are prior-free for full-support sources,
and inference always conditions on its value.

``BayesNet`` deliberately stores raw rational rows rather than validated
channel objects so that ``validate`` can report every defect of an
ill-formed file (bad row sums, arity mismatches, cycles) instead of
throwing at the first one. The validated CPT channels, their measures
(``BayesNet.measures``), and the joints of the ancestral closures that
``composite_channel``, ``composite_joints`` and ``joint_distribution``
project, are memoized on the instance as they are first needed; all
depend only on the nodes, which never change.

Inference runs on integers. A closure is walked once for every source
value, the source being its first coordinate, as integer numerators over
den, the product of the closure nodes' CPT denominators. The memo holds
the support only; a projection adds numerators into one column per cell,
and the channels are built from those columns
(``DiscreteChannel.from_law``), so no ``Fraction`` is built for a cell.

A memoized closure serves every closure inside it with the same law and
column order. Both are ancestral, so ``topological_sort`` layers their
common nodes alike, and the larger walk's order restricted to the smaller
closure is the smaller walk's. An outside node never constrains the inner
support: its CPT rows split each cell into numerators that add up to its
den, which ``from_law`` cancels, and after a common prefix it takes the
same first value whatever inner cell follows, so inner cells, and their
projections, first appear in the lexicographic larger walk in their own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import DEFAULT_MAX_STATES, CapacityError, LeakboundError, exact_str
from .measures import DiscreteChannel, ExactLaw, MeasureSet, Pmf, _over_lcm, as_fraction, measure_set


@dataclass(frozen=True)
class NodeSpec:
    """One node: alphabet, ordered parents, and raw CPT rows.

    ``rows`` has one row per parent configuration (lexicographic in the
    declared parent order); a parentless node has a single row, its
    prior. The source node may omit rows entirely (``rows = None``).
    """

    node_id: str
    alphabet: tuple[str, ...]
    parents: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...] | None

    @staticmethod
    def make(node_id, alphabet, parents=(), rows=None) -> "NodeSpec":
        if isinstance(alphabet, int):
            alphabet = tuple(str(i) for i in range(alphabet))
        else:
            alphabet = tuple(str(a) for a in alphabet)
        frozen = None
        if rows is not None:
            frozen = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        return NodeSpec(str(node_id), alphabet, tuple(str(p) for p in parents), frozen)


class BayesNet:
    """Nodes in declaration order plus a designated source node."""

    def __init__(self, nodes: Sequence[NodeSpec], source: str):
        nodes = tuple(nodes)
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise LeakboundError("duplicate node ids")
        if source not in ids:
            raise LeakboundError(f"source {source!r} is not a node")
        self.nodes = nodes
        self.source = source
        self.by_id: Mapping[str, NodeSpec] = {n.node_id: n for n in nodes}
        # ("cpt", node) -> validated channel, ("measures", node) -> its measure_set,
        # ("joint", closure) -> its joint for every source value, from _enumerate,
        # ("children",) -> each node's children, for descendants.
        self._memo: dict[tuple, object] = {}

    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.nodes]

    def parent_configs(self, node_id: str) -> list[tuple[str, ...]]:
        """Parent-value tuples in lexicographic declared-parent order."""
        return _alphabet(self, self.by_id[node_id].parents)

    def cpt(self, node_id: str) -> DiscreteChannel:
        """The node's CPT as a channel; raises on structural defects."""
        key = ("cpt", node_id)
        if key in self._memo:
            return self._memo[key]
        node = self.by_id[node_id]
        if node.rows is None:
            raise LeakboundError(f"node {node_id!r} has no distribution rows")
        configs = self.parent_configs(node_id)
        if len(node.rows) != len(configs):
            raise LeakboundError(
                f"node {node_id!r} has {len(node.rows)} rows for "
                f"{len(configs)} parent configurations"
            )
        for row in node.rows:
            if len(row) != len(node.alphabet):
                raise LeakboundError(
                    f"row has {len(row)} entries for alphabet of size {len(node.alphabet)}"
                )
        # The law straight from the rows, no Pmf built: numerators over the
        # least common denominator, a column per symbol in order of first
        # appearance, row by row; from_law checks signs and row sums.
        den, nums = _over_lcm(q for row in node.rows for q in row)
        numerator, columns = iter(nums), {}
        for i in range(len(node.rows)):
            for sym in node.alphabet:
                if num := next(numerator):
                    columns.setdefault(sym, [0] * len(node.rows))[i] = num
        channel = self._memo[key] = DiscreteChannel.from_law(den, columns, (node.alphabet,), configs)
        return channel

    def measures(self, node_id: str) -> MeasureSet:
        """``measure_set`` of the node's CPT, computed once."""
        key = ("measures", node_id)
        if key not in self._memo:
            self._memo[key] = measure_set(self.cpt(node_id))
        return self._memo[key]

    def with_source(self, source: str) -> "BayesNet":
        return BayesNet(self.nodes, source)


def validate(net: BayesNet) -> list[str]:
    """All structural violations, as human-readable strings; [] when ok."""
    problems: list[str] = []
    ids = set(net.node_ids())
    for node in net.nodes:
        for p in node.parents:
            if p not in ids:
                problems.append(f"node {node.node_id}: unknown parent {p!r}")
            if p == node.node_id:
                problems.append(f"node {node.node_id}: is its own parent")
        if len(set(node.parents)) != len(node.parents):
            problems.append(f"node {node.node_id}: duplicate parents")
        if not node.alphabet:
            problems.append(f"node {node.node_id}: empty alphabet")
        if len(set(node.alphabet)) != len(node.alphabet):
            problems.append(f"node {node.node_id}: duplicate alphabet symbols")

    src = net.by_id[net.source]
    if src.parents:
        problems.append(f"source {net.source} must not have parents")

    cycle = _find_cycle(net)
    if cycle:
        problems.append("cycle: " + " -> ".join(cycle))

    for node in net.nodes:
        if node.node_id == net.source:
            continue
        if node.rows is None:
            problems.append(f"node {node.node_id}: missing rows")
            continue
        if any(p not in ids for p in node.parents):
            continue  # row count is meaningless with unknown parents
        expected = 1
        for p in node.parents:
            expected *= len(net.by_id[p].alphabet)
        if len(node.rows) != expected:
            problems.append(
                f"node {node.node_id}: {len(node.rows)} rows, expected {expected}"
            )
        for r, row in enumerate(node.rows):
            if len(row) != len(node.alphabet):
                problems.append(
                    f"node {node.node_id} row {r}: {len(row)} entries for "
                    f"alphabet of size {len(node.alphabet)}"
                )
                continue
            den, nums = _over_lcm(row)
            if any(v < 0 or v > den for v in nums):
                problems.append(f"node {node.node_id} row {r}: entry outside [0, 1]")
            if sum(nums) != den:
                total = exact_str(Fraction(sum(nums), den))
                problems.append(f"node {node.node_id} row {r}: sums to {total}")
    return problems


def _find_cycle(net: BayesNet) -> list[str] | None:
    state: dict[str, int] = {}  # 0 visiting, 1 done
    for nid in net.node_ids():
        if nid not in state:
            found = _walk_parents(net.by_id, nid, [], state)
            if found:
                return found
    return None


def _walk_parents(by_id: dict, u: str, stack: list[str], state: dict[str, int]) -> list[str] | None:
    """The depth-first step of ``_find_cycle``. A module-level function, not
    a closure that calls itself, which would tie the net into a reference
    cycle that only the cyclic garbage collector frees."""
    state[u] = 0
    stack.append(u)
    # Edges run parent -> child; walking parents finds the same cycles.
    for p in by_id[u].parents:
        if p not in by_id:
            continue
        if state.get(p) == 0:
            return stack[stack.index(p):] + [p]
        if p not in state:
            found = _walk_parents(by_id, p, stack, state)
            if found:
                return found
    stack.pop()
    state[u] = 1
    return None


def topological_sort(net: BayesNet) -> list[str]:
    """Parents before children; ties broken by node id (deterministic)."""
    remaining = {n.node_id: set(n.parents) for n in net.nodes}
    order: list[str] = []
    while remaining:
        ready = sorted(nid for nid, deps in remaining.items() if not deps)
        if not ready:
            cycle = _find_cycle(net)
            raise LeakboundError(
                "graph has a cycle: " + " -> ".join(cycle or remaining)
            )
        for nid in ready:
            order.append(nid)
            del remaining[nid]
        for deps in remaining.values():
            deps.difference_update(ready)
    return order


def descendants(net: BayesNet, node_id: str) -> set[str]:
    """Every node with a directed path from ``node_id``; the net's child
    map is built once and memoized."""
    children = net._memo.get(("children",))
    if children is None:
        children = net._memo[("children",)] = {nid: [] for nid in net.node_ids()}
        for node in net.nodes:
            for p in node.parents:
                if p in children:
                    children[p].append(node.node_id)
    out: set[str] = set()
    frontier = [node_id]
    while frontier:
        u = frontier.pop()
        for c in children[u]:
            if c not in out:
                out.add(c)
                frontier.append(c)
    return out


def ancestral_closure(net: BayesNet, node_ids: Sequence[str]) -> tuple[str, ...]:
    """The nodes, the source and all their ancestors, in declaration order.

    Parents that are not nodes of the net are skipped here; inference on
    the closure reports them.
    """
    keep: set[str] = set()
    frontier = [*node_ids, net.source]
    while frontier:
        u = frontier.pop()
        if u in keep or u not in net.by_id:
            continue
        keep.add(u)
        frontier.extend(net.by_id[u].parents)
    return tuple(nid for nid in net.node_ids() if nid in keep)


def _enumerate(net: BayesNet, closure: tuple[str, ...]) -> tuple[tuple, int, dict]:
    """The closure's joint for every source value at once, as (coordinates,
    den, {value tuple: numerator}). The coordinates are the source, then
    the other closure nodes in topological order; only positive numerators
    are kept, each source value's support in one run, in the order the walk
    reaches it. den is the product of the nodes' CPT denominators
    (``DiscreteChannel.den``). Every parent of a closure node is in the
    closure, so its CPTs are the network's."""
    sub = BayesNet([net.by_id[nid] for nid in closure], net.source)
    order = [net.source, *(nid for nid in topological_sort(sub) if nid != net.source)]
    cpts = {nid: net.cpt(nid) for nid in closure if nid != net.source}

    # Extend partial assignments one node at a time; zero-probability
    # branches are pruned as they appear.
    den = 1
    partial: dict[tuple, int] = {(x,): 1 for x in net.by_id[net.source].alphabet}
    for nid in order[1:]:
        cpt = cpts[nid]
        den *= cpt.den
        # Each row's support in alphabet order, the order the walk extends in.
        columns = [(value, cpt.columns[value]) for value in cpt.axes[0] if value in cpt.columns]
        supports = {
            cfg: [(value, col[k]) for value, col in columns if col[k]]
            for k, cfg in enumerate(cpt.input_alphabet)
        }
        at = [order.index(p) for p in net.by_id[nid].parents]
        grown: dict[tuple, int] = {}
        for assign, weight in partial.items():
            for value, num in supports[tuple(assign[k] for k in at)]:
                grown[assign + (value,)] = weight * num
        partial = grown
    return tuple(order), den, partial


def joint_distribution(
    net: BayesNet, source_value: str, max_states: int = DEFAULT_MAX_STATES
) -> Pmf:
    """Exact joint over all non-source nodes, given the source's value.

    The returned Pmf is over value tuples aligned with the non-source
    nodes in declaration order. It is the projection of the whole
    network's closure (see ``_projected``).
    """
    alphabet = net.by_id[net.source].alphabet
    if source_value not in alphabet:
        raise LeakboundError(f"{source_value!r} not in the source alphabet")
    non_source = [nid for nid in net.node_ids() if nid != net.source]
    # The source coordinate keeps each source value's cells in walk order.
    den, columns = _projected(net, [net.source, *non_source], max_states)
    i = alphabet.index(source_value)
    nums = {cell[1:]: col[i] for cell, col in columns.items() if cell[0] == source_value}
    return Pmf(_alphabet(net, non_source), ExactLaw(den, nums))


def _declared(net: BayesNet, node_ids: Sequence[str]) -> list[str]:
    """The nodes, each once and checked, sorted into declaration order."""
    for nid in node_ids:
        if nid not in net.by_id:
            raise LeakboundError(f"unknown target node {nid!r}")
    wanted = set(node_ids)
    return [nid for nid in net.node_ids() if nid in wanted]


def _alphabet(net: BayesNet, node_ids: Sequence[str]) -> list[tuple]:
    """The nodes' value tuples, lexicographic in the order given."""
    return list(product(*(net.by_id[nid].alphabet for nid in node_ids)))


def _projected(
    net: BayesNet, node_ids: Sequence[str], max_states: int
) -> tuple[int, dict[tuple, list[int]]]:
    """The law of the value tuple over ``node_ids`` given the source, as
    (den, columns) for ``DiscreteChannel.from_law``, columns in order of
    first appearance, source value by source value; repeats are allowed
    in ``node_ids``, the source among them. Only their ancestral closure
    counts, and ``max_states`` bounds its states. Its joint is read off
    the memoized closure with the fewest cells that holds it (the module
    docstring says why the law and column order are the same), or else
    enumerated and memoized on ``net``. Callers that skip ``validate`` get
    CPT and graph errors only for nodes inside the closure."""
    closure = ancestral_closure(net, node_ids)
    states = 1
    for nid in closure:
        if nid != net.source:
            states *= len(net.by_id[nid].alphabet)
            if states > max_states:
                raise CapacityError(states, max_states, "joint states")
    inside = set(closure).issubset
    walk = min((held for key, held in net._memo.items() if key[0] == "joint" and inside(key[1])),
               key=lambda held: len(held[2]), default=None)
    if walk is None:
        walk = net._memo[("joint", closure)] = _enumerate(net, closure)
    order, den, nums = walk
    picks = [order.index(nid) for nid in node_ids]
    k = picks[0] if picks else 0  # itemgetter() raises, itemgetter(k) gives a bare value
    pick = itemgetter(*picks) if len(picks) > 1 else itemgetter(slice(k, k + len(picks)))
    source = net.by_id[net.source].alphabet
    row = {x: i for i, x in enumerate(source)}
    columns: dict[tuple, list[int]] = {}
    for assign, num in nums.items():
        cell = pick(assign)
        col = columns.get(cell)
        if col is None:
            col = columns[cell] = [0] * len(source)
        col[row[assign[0]]] += num
    return den, columns


def composite_channel(
    net: BayesNet,
    targets: Sequence[str],
    max_states: int = DEFAULT_MAX_STATES,
) -> DiscreteChannel:
    """P(targets | source): one row per source value, exact.

    Output symbols are value tuples over the target nodes sorted into
    declaration order (so the result is independent of the order the
    caller lists them in). The source itself may appear as a target; its
    coordinate is then a point mass at the conditioning value. Only the
    targets' ancestral closure counts (see ``_projected``).
    """
    ordered = _declared(net, targets)
    if not ordered:
        raise LeakboundError("empty target set")
    den, columns = _projected(net, ordered, max_states)
    source = net.by_id[net.source].alphabet
    return DiscreteChannel.from_law(den, columns, (_alphabet(net, ordered),), source)


def composite_joints(
    net: BayesNet,
    x_nodes: Sequence[str],
    y_nodes: Sequence[str],
    max_states: int = DEFAULT_MAX_STATES,
) -> DiscreteChannel:
    """P(x_nodes, y_nodes | source): one ``JointPmf`` row per source value.

    A cell is (x-values, y-values), each part in declaration order; the
    node sets may overlap, and either may be empty.
    """
    xs, ys = _declared(net, x_nodes), _declared(net, y_nodes)
    k = len(xs)
    den, columns = _projected(net, xs + ys, max_states)
    return DiscreteChannel.from_law(
        den, {(t[:k], t[k:]): col for t, col in columns.items()},
        (_alphabet(net, xs), _alphabet(net, ys)), net.by_id[net.source].alphabet,
    )
