"""Upper bounds on the leakage exponent of composite channels.

For a source X, a node set V and a later node U (no directed path from U
into V), the composite leakage exponent obeys

    tau_max(P_{V+U|X}) <= tau_max(P_{U|pa(U)}) * tau_max(P_{V|X})
                          - (tau_max(P_{U|pa(U)}) - 1) * penalty

with two interchangeable penalties:

* ``coupling_bound`` uses f = sum_v P(pa(U)-copies all equal, some
  V-copy = v) under the simultaneous coupling of the per-source-value
  joints P_{V,pa(U)|X=i}; this is the tighter form. f is read off the
  table of Y-tuple weights the coupling would be assembled from
  (``simultaneous.coupling_penalty``), so the coupling is never built.
* ``doeblin_bound`` replaces f by the Doeblin coefficient of the exact
  composite channel P_{V+pa(U)|X}, which lower-bounds every f, so its
  bound is never tighter than the coupling one.

Both require tau_max2(P_{U|pa(U)}) <= 1 and a couplable V-side: either
tau_max2(P_{V|X}) <= 1 or, when |X| = 4, the relaxed four-way condition.

``recursive_bound`` peels the topologically last target node repeatedly;
``subadditivity_baseline`` is the same product with every penalty dropped
(the plain additive-leakage bound). Dropping penalties can only increase
the value, so bounds here always satisfy
coupling <= doeblin <= baseline on any accepted query.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .bayesnet import (
    DEFAULT_MAX_STATES,
    BayesNet,
    composite_channel,
    descendants,
    topological_sort,
)
from .errors import LeakboundError, PreconditionError
from .measures import (
    ZERO,
    DiscreteChannel,
    doeblin,
    tau_max,
    tau_max2,
)
from .simultaneous import (
    Feasibility,
    JointPmf,
    coupling_feasibility,
    coupling_penalty,
)


@dataclass(frozen=True)
class PeelStep:
    """One application of the single-node bound inside a recursion."""

    u: str
    v_set: tuple[str, ...]
    adjoined: tuple[str, ...]
    tau_max_u: Fraction
    penalty: Fraction
    preconditions: tuple[tuple[str, str, bool], ...]


@dataclass(frozen=True)
class BoundReport:
    """Everything one query produced: bounds, exact value, gaps, checks."""

    query: str
    exact_tau_max: Fraction
    coupling_bound_value: Fraction | None
    doeblin_bound_value: Fraction | None
    subadditivity_value: Fraction | None
    precondition_log: tuple[tuple[str, str, bool], ...]
    trace: tuple[PeelStep, ...] = ()

    def gap(self, which: str) -> Fraction | None:
        value = getattr(self, f"{which}_value")
        if value is None:
            return None
        return value - self.exact_tau_max


def _check_order(net: BayesNet, v_set: Sequence[str], u: str) -> None:
    if u in v_set:
        raise LeakboundError(f"peeled node {u!r} may not belong to V")
    below = descendants(net, u)
    bad = sorted(set(v_set) & below)
    if bad:
        raise LeakboundError(
            f"directed path from {u!r} into {bad}; peel order invalid"
        )


def _sources_for_coupling(
    net: BayesNet, v_set: Sequence[str], u: str, w_channel: DiscreteChannel
) -> list[JointPmf]:
    """The joints P_{V, pa(U) | X = i} split out of the rows of
    w_channel = P_{V+pa(U)|X}: x-part = parent values of U, y-part = V
    values, one JointPmf per source value."""
    parents = list(net.by_id[u].parents)
    decl = net.node_ids()
    w_nodes = set(v_set) | set(parents)
    ordered = [nid for nid in decl if nid in w_nodes]
    w_pos = {nid: k for k, nid in enumerate(ordered)}
    v_ordered = [nid for nid in decl if nid in set(v_set)]

    z_alphabet = list(product(*(net.by_id[p].alphabet for p in parents)))
    v_alphabet = list(product(*(net.by_id[t].alphabet for t in v_ordered)))

    sources = []
    for row in w_channel.rows:
        mass: dict[tuple, Fraction] = {}
        for w_value in row.support():
            z = tuple(w_value[w_pos[p]] for p in parents)
            v = tuple(w_value[w_pos[t]] for t in v_ordered)
            key = (z, v)
            mass[key] = mass.get(key, ZERO) + row[w_value]
        sources.append(JointPmf(z_alphabet, v_alphabet, mass))
    return sources


def _checked_peel(
    net: BayesNet, v_set: Sequence[str], u: str, max_states: int
) -> tuple[Fraction, DiscreteChannel, DiscreteChannel, tuple, Feasibility]:
    """(tau_max_u, P_{V|X}, P_{V+pa(U)|X}, precondition records, V-side
    verdict) for peeling u off V; raises PreconditionError when a
    hypothesis fails. The verdict goes on to the coupling penalty, which
    then decides nothing twice."""
    v_set = list(v_set)
    if not v_set:
        raise LeakboundError("V must be non-empty")
    _check_order(net, v_set, u)
    u_cpt = net.cpt(u)
    tmu = tau_max(u_cpt)
    # tau_max2 of U's own CPT; a single-row CPT passes trivially.
    u_value = tau_max2(u_cpt) if u_cpt.n > 1 else None
    rec_u = (
        f"tau_max2(P_{{{u}|pa}}) <= 1",
        "trivial (one row)" if u_value is None else str(u_value),
        u_value is None or u_value <= 1,
    )
    v_channel = composite_channel(net, v_set, max_states=max_states)
    verdict = coupling_feasibility(list(v_channel.rows))
    rec_v = (
        f"{verdict.label} for P_{{{'+'.join(sorted(v_set))}|X}}",
        str(verdict.value),
        verdict.ok,
    )
    for name, value, ok in (rec_u, rec_v):
        if not ok:
            raise PreconditionError(name, Fraction(value))
    w_nodes = list(dict.fromkeys(v_set + list(net.by_id[u].parents)))
    w_channel = composite_channel(net, w_nodes, max_states=max_states)
    return tmu, v_channel, w_channel, (rec_u, rec_v), verdict


def _penalty(
    method: str,
    net: BayesNet,
    v_set: Sequence[str],
    u: str,
    w_channel: DiscreteChannel,
    verdict: Feasibility,
    max_states: int,
) -> Fraction:
    """The Doeblin coefficient of P_{V+pa(U)|X}, or f under the
    simultaneous coupling of its rows, given the V-side verdict."""
    if method == "doeblin":
        return doeblin(w_channel)
    if method == "coupling":
        sources = _sources_for_coupling(net, v_set, u, w_channel)
        return coupling_penalty(sources, max_states, verdict)
    raise LeakboundError(f"unknown method {method!r}")


def _single_step(
    net: BayesNet,
    v_set: Sequence[str],
    u: str,
    method: str,
    max_states: int,
) -> tuple[Fraction, Fraction, PeelStep]:
    """(bound, penalty-free product, step record) for peeling u off V."""
    tmu, v_channel, w_channel, checks, verdict = _checked_peel(
        net, v_set, u, max_states
    )
    penalty = _penalty(method, net, v_set, u, w_channel, verdict, max_states)
    tmv = tau_max(v_channel)
    step = PeelStep(u, tuple(v_set), (), tmu, penalty, checks)
    return tmu * tmv - (tmu - 1) * penalty, tmu * tmv, step


def coupling_bound(
    net: BayesNet,
    v_set: Sequence[str],
    u: str,
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """Single-step bound with the simultaneous-coupling penalty f."""
    return _single_step(net, v_set, u, "coupling", max_states)[0]


def doeblin_bound(
    net: BayesNet,
    v_set: Sequence[str],
    u: str,
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """Single-step bound with the Doeblin-coefficient penalty."""
    return _single_step(net, v_set, u, "doeblin", max_states)[0]


def exact_tau_max(
    net: BayesNet, targets: Sequence[str], max_states: int = DEFAULT_MAX_STATES
) -> Fraction:
    """Ground truth: the leakage exponent of the exact composite channel."""
    return tau_max(composite_channel(net, list(targets), max_states=max_states))


def _peel_plan(net: BayesNet, targets: Sequence[str]) -> list[str]:
    order = topological_sort(net)
    position = {nid: k for k, nid in enumerate(order)}
    return sorted(set(targets), key=position.get)


def _walk(
    net: BayesNet, targets: Sequence[str], method: str, max_states: int
) -> tuple[list[PeelStep], list[tuple[DiscreteChannel, Feasibility]], list[str]]:
    """Walk the peel plan of ``recursive_bound`` once.

    Returns the steps, the channel P_{V+pa(U)|X} and the V-side verdict
    of each step, and the final singleton. Each step carries the
    method's penalty. For ``baseline`` the hypotheses are skipped, the
    penalty is zero, and no channel is computed. A precondition failure raises with the steps
    before it in the error's ``trace`` attribute.
    """
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise LeakboundError("empty target set")
    for t in targets:
        if t not in net.by_id:
            raise LeakboundError(f"unknown target node {t!r}")
        if t == net.source:
            raise LeakboundError("the source cannot be a bound target")
    if method not in ("doeblin", "coupling", "baseline"):
        raise LeakboundError(f"unknown method {method!r}")

    steps: list[PeelStep] = []
    peeled: list[tuple[DiscreteChannel, Feasibility]] = []
    current = _peel_plan(net, targets)
    while len(current) > 1:
        u = current[-1]
        v_set = current[:-1]
        adjoin = tuple(
            p
            for p in net.by_id[u].parents
            if p not in set(v_set) and p != net.source
        )
        v_set = _peel_plan(net, v_set + list(adjoin))
        if method == "baseline":
            step = PeelStep(u, tuple(v_set), adjoin, tau_max(net.cpt(u)), ZERO, ())
        else:
            try:
                tmu, _, w_channel, checks, verdict = _checked_peel(
                    net, v_set, u, max_states
                )
            except PreconditionError as err:
                err.trace = tuple(steps)
                raise
            penalty = _penalty(method, net, v_set, u, w_channel, verdict, max_states)
            step = PeelStep(u, tuple(v_set), adjoin, tmu, penalty, checks)
            peeled.append((w_channel, verdict))
        steps.append(step)
        current = v_set
    return steps, peeled, current


def _compose(last: Fraction, factors) -> Fraction:
    """Fold (tau_max_u, penalty) pairs, first peel outermost, onto the
    exact value of the final singleton."""
    value = last
    for tmu, penalty in reversed(factors):
        value = tmu * value - (tmu - 1) * penalty
    return value


def recursive_bound(
    net: BayesNet,
    targets: Sequence[str],
    method: str = "doeblin",
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[Fraction, tuple[PeelStep, ...]]:
    """Peel the topologically last target node until one node remains.

    At each step V is the rest of the target set, with pa(U) \\ (V + {X})
    adjoined so the peeled node's parents stay inside the bounded set;
    adjoining bounds a superset of the original targets, which is sound
    because marginalization never increases tau_max. The final singleton
    is evaluated exactly. On a precondition failure, the raised error
    carries the partial trace in its ``trace`` attribute.
    """
    steps, _, last = _walk(net, targets, method, max_states)
    exact_last = exact_tau_max(net, last, max_states=max_states)
    value = _compose(exact_last, [(s.tau_max_u, s.penalty) for s in steps])
    return value, tuple(steps)


def subadditivity_baseline(
    net: BayesNet,
    targets: Sequence[str],
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """The recursion with every penalty term dropped: the plain product
    of per-step leakage exponents times the final exact factor."""
    value, _ = recursive_bound(net, targets, method="baseline", max_states=max_states)
    return value


def query_report(
    net: BayesNet,
    targets: Sequence[str],
    method: str = "recursive",
    max_states: int = DEFAULT_MAX_STATES,
) -> BoundReport:
    """Evaluate one query and collect bounds, exact value, and checks.

    ``method`` is "recursive" (full peel with both penalties), "coupling"
    or "doeblin" (single peel of the topologically last target). A
    precondition failure marks the affected bounds None but the exact
    value is always reported.

    The recursive report walks the peel plan once, with the Doeblin
    penalty, and takes the coupling penalties from the same channels
    afterwards; its values equal those of ``recursive_bound`` for both
    methods and of ``subadditivity_baseline``. The coupling penalty has
    the same hypotheses as the V-side precondition, whose verdict each
    step hands on, and it builds no coupling support. So once the walk
    has passed, it can fail only on the LP's variable limit, which
    applies when the source has five or more values.
    """
    exact = exact_tau_max(net, targets, max_states=max_states)
    log: list[tuple[str, str, bool]] = []
    coupling_value = doeblin_value = baseline_value = None
    trace: tuple[PeelStep, ...] = ()

    plan = _peel_plan(net, targets)
    if len(plan) == 1:
        # Zero peels: every bound collapses to the exact value.
        return BoundReport(
            query=f"{net.source} -> {{{', '.join(plan)}}} [{method}]",
            exact_tau_max=exact,
            coupling_bound_value=exact,
            doeblin_bound_value=exact,
            subadditivity_value=exact,
            precondition_log=(),
        )

    try:
        if method == "recursive":
            steps, peeled, last = _walk(net, targets, "doeblin", max_states)
            exact_last = exact_tau_max(net, last, max_states=max_states)
            coupling_penalties = [
                _penalty("coupling", net, s.v_set, s.u, w, verdict, max_states)
                for s, (w, verdict) in zip(steps, peeled)
            ]
            doeblin_value = _compose(
                exact_last, [(s.tau_max_u, s.penalty) for s in steps]
            )
            coupling_value = _compose(
                exact_last,
                [(s.tau_max_u, p) for s, p in zip(steps, coupling_penalties)],
            )
            baseline_value = _compose(exact_last, [(s.tau_max_u, ZERO) for s in steps])
            trace = tuple(steps)
        elif method in ("coupling", "doeblin"):
            value, baseline_value, step = _single_step(
                net, plan[:-1], plan[-1], method, max_states
            )
            if method == "coupling":
                coupling_value = value
            else:
                doeblin_value = value
            trace = (step,)
        else:
            raise LeakboundError(f"unknown method {method!r}")
        for step in trace:
            log.extend(step.preconditions)
    except PreconditionError as err:
        log.append((err.condition, str(err.value), False))

    return BoundReport(
        query=f"{net.source} -> {{{', '.join(sorted(targets))}}} [{method}]",
        exact_tau_max=exact,
        coupling_bound_value=coupling_value,
        doeblin_bound_value=doeblin_value,
        subadditivity_value=baseline_value,
        precondition_log=tuple(log),
        trace=trace,
    )
