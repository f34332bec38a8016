"""Upper bounds on the leakage exponent of composite channels.

For a source X, a node set V and a later node U (no directed path from U
into V), the composite leakage exponent obeys

    tau_max(P_{V+U|X}) <= tau_max(P_{U|pa(U)}) * tau_max(P_{V|X})
                          - (tau_max(P_{U|pa(U)}) - 1) * penalty

with two interchangeable penalties:

* ``coupling_bound`` uses f = sum_v P(pa(U)-copies all equal, some
  V-copy = v) under the simultaneous coupling of the per-source-value
  joints P_{pa(U),V|X=i} (``bayesnet.composite_joints``, the one place
  that knows the node-tuple layout); this is the tighter form. f is read
  off the mixture parts the coupling would be assembled from
  (``simultaneous.coupling_penalty``), so no tuple of it is listed.
* ``doeblin_bound`` replaces f by the Doeblin coefficient of the same
  joints, which lower-bounds every f, so its bound is never tighter
  than the coupling one.

Both require tau_max2(P_{U|pa(U)}) <= 1 and a couplable V-side: either
tau_max2(P_{V|X}) <= 1 or, when |X| = 4, the relaxed four-way condition.
A side with one row passes trivially: with |X| = 1 the one joint is its
own coupling, f = 1, and every bound equals the exact value 1.

``recursive_bound`` peels the topologically last target node repeatedly;
``subadditivity_baseline`` is the same product with every penalty dropped
(the plain additive-leakage bound). Dropping penalties can only increase
the value, so bounds here always satisfy
coupling <= doeblin <= baseline on any accepted query.

Every entry folds one peel plan: the steps, each (U, V, adjoined
parents), and the final set. ``_recursive_plan`` peels the last target
until one node remains, ``_single_plan`` peels once, and the single-step
bounds wrap their own (V, U); the targets are checked and put in
topological order once per query. ``_walk`` projects each step once,
onto P_{pa(U),V|X}, off the one walk that holds every step's closure
(``bayesnet._projected``): the targets' closure, which ``query_report``
walks first for the exact value, or in ``recursive_bound`` the first
step's. It reads U's tau_max and tau_max2 off ``BayesNet.measures``,
checks the step's hypotheses, computing its Doeblin penalty, and returns
the first failure: a ``PreconditionError`` whose ``trace`` holds the
steps before it, with the Doeblin penalty whatever the method. The bound
functions raise it; ``query_report`` logs it after the checks that
passed. ``_fold`` composes the passed steps under the Doeblin penalty, f
or 0 (the baseline), and cannot fail: f is read off the mixture table
its step kept from the walk, and solves no LP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Sequence

from .bayesnet import (
    DEFAULT_MAX_STATES, BayesNet, composite_channel, composite_joints, descendants,
    topological_sort,
)
from .errors import LeakboundError, PreconditionError, output_str
from .measures import ZERO, doeblin, tau_max
from .simultaneous import _mixture_table, _MixtureTable, _penalty


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
        return None if value is None else value - self.exact_tau_max


class _Plan(NamedTuple):
    """Peel steps, each (U, V, adjoined parents), first peel first, and
    the final set, whose exact value the steps are folded onto."""

    steps: list[tuple[str, list[str], tuple[str, ...]]]
    last: list[str]


class _Checked(NamedTuple):
    """A peel step whose hypotheses passed, with the mixture table of
    P_{pa(U),V|X}; a baseline step, which is not checked, has none."""

    step: PeelStep  # carries the Doeblin penalty, or 0 for the baseline
    table: _MixtureTable | None = None


def _record(name: str, value: Fraction | None, ok: bool) -> tuple[str, str, bool]:
    """A precondition log entry; value None marks a one-row channel."""
    return (name, "trivial (one row)" if value is None else output_str(value), ok)


def _walk(
    net: BayesNet, plan: _Plan, max_states: int
) -> tuple[list[_Checked], list[tuple[str, str, bool]], PreconditionError | None]:
    """Check the hypotheses of the steps of a plan in order, up to the
    first failure: the steps that passed, every check made (the failing
    one last), and the failure or None, whose ``trace`` holds the steps
    before it with the Doeblin penalty. A step decides its V-side
    condition by building the mixture table of P_{pa(U),V|X}, whose
    Y-marginals are P_{V|X}, and keeps it."""
    checked: list[_Checked] = []
    log: list[tuple[str, str, bool]] = []
    for u, v_set, adjoined in plan.steps:
        v_set = list(v_set)
        if not v_set:
            raise LeakboundError("V must be non-empty")
        if u not in net.by_id:
            raise LeakboundError(f"unknown target node {u!r}")
        if u in v_set:
            raise LeakboundError(f"peeled node {u!r} may not belong to V")
        bad = sorted(set(v_set) & descendants(net, u))
        if bad:
            raise LeakboundError(
                f"directed path from {u!r} into {bad}; peel order invalid"
            )
        measured = net.measures(u)  # tau_max2 None: a one-row CPT passes trivially
        u_value = measured.tau_max2
        rec_u = _record(f"tau_max2(P_{{{u}|pa}}) <= 1", u_value, u_value is None or u_value <= 1)
        joints = composite_joints(net, net.by_id[u].parents, v_set, max_states)
        try:
            table = _mixture_table(joints)
            v_label, num = table.condition
            v_value = None if num is None else Fraction(num, table.y_coupling.marginals.den)
        except PreconditionError as refusal:
            table, v_label, v_value = None, refusal.condition, refusal.value
        rec_v = _record(
            f"{v_label} for P_{{{'+'.join(sorted(v_set))}|X}}", v_value, table is not None
        )
        for record, value in ((rec_u, u_value), (rec_v, v_value)):
            log.append(record)
            if not record[2]:
                failure = PreconditionError(record[0], value)
                failure.trace = tuple(c.step for c in checked)
                return checked, log, failure
        step = PeelStep(u, tuple(v_set), adjoined, measured.tau_max, doeblin(joints), (rec_u, rec_v))
        checked.append(_Checked(step, table))
    return checked, log, None


def _fold(
    method: str, base: Fraction, checked: Sequence[_Checked]
) -> tuple[Fraction, tuple[PeelStep, ...]]:
    """The bound of ``method`` and its trace, each step carrying the
    method's penalty: the Doeblin coefficient of P_{pa(U),V|X} for
    "doeblin", f under the simultaneous coupling of its rows over the
    step's table for "coupling", and 0 for "baseline". The steps fold,
    first peel outermost, onto ``base``, tau_max of the last step's V."""
    value, steps = base, []
    for step, table in reversed(checked):
        if method == "coupling":
            step = replace(step, penalty=_penalty(table))
        elif method == "baseline":
            step = replace(step, penalty=ZERO)
        value = step.tau_max_u * value - (step.tau_max_u - 1) * step.penalty
        steps.insert(0, step)
    return value, tuple(steps)


def _single_bound(
    method: str, net: BayesNet, v_set: Sequence[str], u: str, max_states: int
) -> Fraction:
    """The single-step bound of ``method``, based on tau_max of P_{V|X}."""
    checked, _, failure = _walk(net, _Plan([(u, v_set, ())], list(v_set)), max_states)
    if failure:
        raise failure
    return _fold(method, tau_max(checked[0].table.y_coupling.marginals), checked)[0]


def coupling_bound(
    net: BayesNet,
    v_set: Sequence[str],
    u: str,
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """Single-step bound with the simultaneous-coupling penalty f."""
    return _single_bound("coupling", net, v_set, u, max_states)


def doeblin_bound(
    net: BayesNet,
    v_set: Sequence[str],
    u: str,
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """Single-step bound with the Doeblin-coefficient penalty."""
    return _single_bound("doeblin", net, v_set, u, max_states)


def exact_tau_max(
    net: BayesNet, targets: Sequence[str], max_states: int = DEFAULT_MAX_STATES
) -> Fraction:
    """Ground truth: the leakage exponent of the exact composite channel."""
    return tau_max(composite_channel(net, list(targets), max_states=max_states))


def _ordered(
    net: BayesNet, targets: Sequence[str], source_ok: bool = False
) -> tuple[list[str], dict[str, int]]:
    """The query's targets, each once and checked, in topological order,
    and the topological position of every node."""
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise LeakboundError("empty target set")
    for t in targets:
        if t not in net.by_id:
            raise LeakboundError(f"unknown target node {t!r}")
        if t == net.source and not source_ok:
            raise LeakboundError("the source cannot be a bound target")
    position = {nid: k for k, nid in enumerate(topological_sort(net))}
    return sorted(targets, key=position.get), position


def _recursive_plan(net: BayesNet, targets: Sequence[str]) -> _Plan:
    """The peel plan of ``recursive_bound``: peel the topologically last
    node, adjoining its parents, until one node, the final set, remains."""
    current, position = _ordered(net, targets)
    steps = []
    while len(current) > 1:
        *rest, u = current
        adjoin = tuple(
            p for p in net.by_id[u].parents if p not in rest and p != net.source
        )
        current = sorted(set(rest).union(adjoin), key=position.get)
        steps.append((u, current, adjoin))
    return _Plan(steps, current)


def _single_plan(net: BayesNet, targets: Sequence[str]) -> _Plan:
    """The single peel: the topologically last target other than the
    source off the rest, the source allowed, as V. No step when V would
    be empty; the final set is then the targets."""
    ordered, _ = _ordered(net, targets, source_ok=True)
    u = next((t for t in reversed(ordered) if t != net.source), None)
    v_set = [t for t in ordered if t != u]
    if u is not None and v_set:
        return _Plan([(u, v_set, ())], v_set)
    return _Plan([], ordered)


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
    is evaluated exactly. Every step's hypotheses are checked before any
    penalty is computed; on a precondition failure, the raised error
    carries the partial trace in its ``trace`` attribute. The method
    "baseline" checks no hypothesis and drops every penalty.
    """
    plan = _recursive_plan(net, targets)
    if method == "baseline":
        checked = [
            _Checked(PeelStep(u, tuple(v_set), adjoin, net.measures(u).tau_max, ZERO, ()))
            for u, v_set, adjoin in plan.steps
        ]
    elif method in ("doeblin", "coupling"):
        checked, _, failure = _walk(net, plan, max_states)
        if failure:
            raise failure
    else:
        raise LeakboundError(f"unknown method {method!r}")
    return _fold(method, exact_tau_max(net, plan.last, max_states=max_states), checked)


def subadditivity_baseline(
    net: BayesNet,
    targets: Sequence[str],
    max_states: int = DEFAULT_MAX_STATES,
) -> Fraction:
    """The recursion with every penalty term dropped: the plain product
    of per-step leakage exponents times the final exact factor."""
    return recursive_bound(net, targets, method="baseline", max_states=max_states)[0]


def query_report(
    net: BayesNet,
    targets: Sequence[str],
    method: str = "recursive",
    max_states: int = DEFAULT_MAX_STATES,
) -> BoundReport:
    """Evaluate one query and collect bounds, exact value, and checks.

    ``method`` is "recursive" (full peel with both penalties), "coupling"
    or "doeblin" (single peel of the topologically last target other than
    the source, with the rest, the source allowed, as V). A precondition
    failure marks the affected bounds None (the log and trace keep what
    passed before it), but the exact value is always reported. With a
    single target, or the source alone, nothing is peeled and every bound
    is the exact value.

    The recursive values equal those of ``recursive_bound`` for both
    methods and of ``subadditivity_baseline``; the trace carries the
    Doeblin penalty, and a single peel's trace the penalty of its method.
    Once the walk has passed, no penalty can fail.
    """
    if method not in ("recursive", "coupling", "doeblin"):
        raise LeakboundError(f"unknown method {method!r}")
    exact = exact_tau_max(net, targets, max_states=max_states)
    plan = (_recursive_plan if method == "recursive" else _single_plan)(net, targets)
    checked, log, failure = _walk(net, plan, max_states)
    values: dict[str, Fraction] = {}
    if failure:
        trace = failure.trace
    else:
        base = tau_max(checked[-1].table.y_coupling.marginals) if checked else exact
        both = method == "recursive" or not checked
        names = ("coupling", "doeblin") if both else (method,)
        folds = {name: _fold(name, base, checked) for name in names + ("baseline",)}
        values = {name: value for name, (value, _) in folds.items()}
        trace = folds["doeblin" if method == "recursive" else method][1]

    return BoundReport(
        query=f"{net.source} -> {{{', '.join(sorted(set(targets)))}}} [{method}]",
        exact_tau_max=exact,
        coupling_bound_value=values.get("coupling"),
        doeblin_bound_value=values.get("doeblin"),
        subadditivity_value=values.get("baseline"),
        precondition_log=tuple(log),
        trace=trace,
    )
