"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every test prints a single `[acceptance] ... PASS/FAIL` line (visible
with ``pytest -s`` and in captured output on failure) and then asserts.
All randomness is seeded; reruns see identical instances.
"""

import random
from fractions import Fraction as Q
from pathlib import Path

from helpers import (
    chain_net,
    rand_couplable_net,
    rand_family,
    rand_family_tau_max2_gt1,
    rand_family_tau_max2_le1,
    rand_partition,
)

from leakbound import (
    CapacityError,
    DiscreteChannel,
    JointPmf,
    Pmf,
    PreconditionError,
    build_n4_coupling,
    build_simultaneous_coupling,
    composite_channel,
    coupling_bound,
    doeblin,
    doeblin_bound,
    exact_tau_max,
    make_erasure,
    make_q_ary_symmetric,
    min_union_coupling,
    n4_condition,
    tau_max,
    tau_max2,
    union_mass,
    validate,
    verify_intersection_property,
    y_union_mass,
)
from leakbound.bayesnet import topological_sort
from leakbound.cli import main as cli_main
from leakbound.couplings import n4_mixture_weights
from leakbound.netfile import parse_network, write_network

FIXTURES = Path(__file__).parent / "fixtures"

# (m, |Y|) -> sample count; totals 1063 across the grid
LP_GRID = {
    (2, 2): 150, (2, 3): 150, (2, 4): 150, (2, 5): 150,
    (3, 2): 100, (3, 3): 100, (3, 4): 60, (3, 5): 30,
    (4, 2): 80, (4, 3): 60, (4, 4): 25, (4, 5): 8,
}


def _report(tag: str, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {tag} - {description}: {status}{extra}")


def test_criterion_1_lp_equality_on_couplable_families():
    rng = random.Random(101)
    checked = 0
    violations = []
    for (m, size), count in sorted(LP_GRID.items()):
        for _ in range(count):
            fam = rand_family_tau_max2_le1(rng, m, size)
            result = min_union_coupling(fam)
            target = tau_max(DiscreteChannel(fam))
            if result.optimal_value != target:
                violations.append((m, size, result.optimal_value, target))
            checked += 1
    ok = checked >= 1000 and not violations
    _report(
        "1",
        "LP optimum equals tau_max whenever tau_max2 <= 1",
        ok,
        f"{checked} families, {len(violations)} violations",
    )
    assert checked >= 1000
    assert not violations, violations[:3]


def test_criterion_1_m3_necessity():
    rng = random.Random(102)
    checked = 0
    violations = []
    for _ in range(40):
        size = rng.choice([3, 4, 5])
        fam = rand_family_tau_max2_gt1(rng, 3, size)
        result = min_union_coupling(fam)
        target = tau_max(DiscreteChannel(fam))
        if not result.optimal_value > target:
            violations.append((size, result.optimal_value, target))
        checked += 1
    _report(
        "1",
        "three-marginal equality fails strictly when tau_max2 > 1",
        not violations,
        f"{checked} families",
    )
    assert not violations, violations[:3]


def _check_four_way(fam):
    """All criterion-2 checks for one family; returns defect or None."""
    coupling = build_n4_coupling(fam)  # ctor verifies marginals exactly
    ch = DiscreteChannel(fam)
    if union_mass(coupling) != tau_max(ch):
        return "union mass"
    if not verify_intersection_property(coupling, fam):
        return "intersection property"
    _, ing = n4_condition(fam)
    weights = n4_mixture_weights(ing)
    total = (
        ing.tau
        + sum(
            ing.tau_by_subset[frozenset({j for j in range(4) if j != i})] - ing.tau
            for i in range(4)
        )
        + sum(weights.beta.values())
        + sum(weights.alpha.values())
        + weights.independent
    )
    if weights.den != ing.channel.den or total != ing.channel.den:
        return f"weights sum to {Q(total, ing.channel.den)} over {weights.den}"
    return None


def test_criterion_2_four_way_construction():
    rng = random.Random(103)
    families = []
    for size in (2, 3, 4, 5):
        for _ in range(40):
            families.append(rand_family_tau_max2_le1(rng, 4, size))
    # unconstrained families kept whenever the existence condition holds
    relaxed = 0
    attempts = 0
    while len(families) < 230 and attempts < 4000:
        attempts += 1
        fam = rand_family(rng, 4, rng.choice([3, 4, 5]))
        holds, ing = n4_condition(fam)
        if holds:
            families.append(fam)
            if ing.tau_max2 > ing.channel.den:
                relaxed += 1
    # frozen regression instances with tau_max2 > 1 (searched / handcrafted)
    searched = [
        Pmf.from_values([Q(0), Q(5, 12), Q(1, 2), Q(1, 12)]),
        Pmf.from_values([Q(0), Q(1, 3), Q(2, 3), Q(0)]),
        Pmf.from_values([Q(1, 4), Q(1, 12), Q(1, 4), Q(5, 12)]),
        Pmf.from_values([Q(5, 12), Q(1, 3), Q(1, 6), Q(1, 12)]),
    ]
    paired = [
        Pmf.from_values([Q(1, 2), Q(1, 2), Q(0), Q(0)]),
        Pmf.from_values([Q(1, 2), Q(1, 2), Q(0), Q(0)]),
        Pmf.from_values([Q(0), Q(0), Q(1, 2), Q(1, 2)]),
        Pmf.from_values([Q(0), Q(0), Q(1, 2), Q(1, 2)]),
    ]
    assert tau_max2(DiscreteChannel(searched)) == Q(7, 6) > 1
    assert tau_max2(DiscreteChannel(paired)) == 2 > 1
    families += [searched, paired]
    relaxed += 2

    defects = []
    for fam in families:
        defect = _check_four_way(fam)
        if defect:
            defects.append((defect, [p.values() for p in fam]))
    _report(
        "2",
        "four-way construction: marginals, union, intersections, weights",
        not defects,
        f"{len(families)} families ({relaxed} with tau_max2 > 1)",
    )
    assert not defects, defects[:2]


def _joint_with_y_marginal(rng, pmf, x_size):
    """Random joint whose Y-marginal is exactly ``pmf``: every symbol's
    mass is split across X by a random conditional."""
    xs = [str(i) for i in range(x_size)]
    mass = {}
    for y in pmf.support():
        split = rand_partition(rng, x_size, rng.choice((4, 8)))
        for x, w in zip(xs, split):
            if w:
                mass[(x, y)] = w * pmf[y]
    return JointPmf(xs, pmf.alphabet, mass)


def test_criterion_3_simultaneous_coupling():
    rng = random.Random(104)
    checked = 0
    defects = []
    # m=2 pairs of free random joints, then m=3 and m=4 families built
    # around Y-marginals that the construction is able to couple
    cases = []
    for _ in range(40):
        y = rng.choice((2, 3))
        ys = [chr(ord("a") + i) for i in range(y)]
        pair = []
        for _ in range(2):
            den = rng.choice((8, 12))
            cells = [(x, s) for x in "01" for s in ys]
            vals = rand_partition(rng, len(cells), den)
            pair.append(JointPmf("01", ys, dict(zip(cells, vals))))
        cases.append(pair)
    for m in (3, 4):
        for _ in range(30):
            fam = rand_family_tau_max2_le1(rng, m, rng.choice((2, 3)))
            x_size = rng.choice((2, 3))
            cases.append([_joint_with_y_marginal(rng, p, x_size) for p in fam])

    for sources in cases:
        coupling = build_simultaneous_coupling(sources)
        for i, src in enumerate(sources):
            if coupling.source_marginal(i) != dict(src.mass):
                defects.append(("joint marginal", i))
        target = tau_max(DiscreteChannel([s.y_marginal() for s in sources]))
        if y_union_mass(coupling) != target:
            defects.append(("y union", target))
        if coupling.y_projection() != dict(coupling.y_coupling.mass):
            defects.append(("ingredient projection",))
        checked += 1
    _report(
        "3",
        "simultaneous coupling: joints preserved, minimal Y-union",
        not defects,
        f"{checked} families across m in (2, 3, 4)",
    )
    assert not defects, defects[:3]


def test_criterion_4_bound_soundness_and_dominance():
    rng = random.Random(105)
    accepted = 0
    rejected = 0
    violations = []
    strict_checked = 0
    while accepted < 500 and rejected < 3000:
        net = rand_couplable_net(rng, rng.choice((3, 4, 5)))
        ids = [n.node_id for n in net.nodes if n.node_id != "X"]
        pos = {n: i for i, n in enumerate(topological_sort(net))}
        ids.sort(key=pos.get)
        u, v = ids[-1], ids[:-1]
        try:
            cb = coupling_bound(net, v, u, max_states=200000)
            db = doeblin_bound(net, v, u, max_states=200000)
        except (PreconditionError, CapacityError):
            rejected += 1
            continue
        tmu = tau_max(net.cpt(u))
        tmv = tau_max(composite_channel(net, v))
        baseline = tmu * tmv
        exact = exact_tau_max(net, ids)
        if not (exact <= cb <= db <= baseline):
            violations.append(("chain", exact, cb, db, baseline))
        w_nodes = list(dict.fromkeys(v + list(net.by_id[u].parents)))
        penalty = doeblin(composite_channel(net, w_nodes))
        if penalty > 0:
            strict_checked += 1
            if not db < baseline:
                violations.append(("strictness", db, baseline))
        accepted += 1
    ok = accepted >= 500 and not violations
    _report(
        "4",
        "exact <= coupling <= doeblin <= baseline, strict when tau > 0",
        ok,
        f"{accepted} networks, {strict_checked} strict checks",
    )
    assert accepted >= 500
    assert not violations, violations[:3]


def test_criterion_5_binary_chain_closed_form():
    deltas = [Q(0), Q(1, 8), Q(1, 4), Q(3, 8), Q(1, 2)]
    defects = []
    for d1 in deltas:
        for d2 in deltas:
            net = chain_net(d1, d2)
            conv = d1 * (1 - d2) + d2 * (1 - d1)  # crossover convolution
            if exact_tau_max(net, ["Y2"]) != 2 * (1 - conv):
                defects.append(("exact", d1, d2))
            # re-derived by hand: tau_max(P_Y2|Y1) tau_max(P_Y1|X)
            #   - (tau_max(P_Y2|Y1) - 1) tau(P_Y1|X)
            # = 4(1-d1)(1-d2) - (1-2 d2) 2 d1 = 4 - 6 d1 - 4 d2 + 8 d1 d2
            if doeblin_bound(net, ["Y1"], "Y2") != 4 - 6 * d1 - 4 * d2 + 8 * d1 * d2:
                defects.append(("polynomial", d1, d2))
    for d2 in deltas:
        net = chain_net(Q(1, 2), d2)
        if doeblin_bound(net, ["Y1"], "Y2") != exact_tau_max(net, ["Y1", "Y2"]):
            defects.append(("equality at 1/2", d2))
    _report(
        "5",
        "binary chain: convolution oracle, bound polynomial, collapse",
        not defects,
        f"{len(deltas) ** 2} delta pairs",
    )
    assert not defects, defects


def test_criterion_6a_max_min_identity():
    rng = random.Random(106)
    defects = 0
    for _ in range(1000):
        fam = rand_family(rng, 4, rng.choice([2, 3, 4, 5]))
        ch = DiscreteChannel(fam)
        pair = sum(
            min(p[y] for k, p in enumerate(fam) if k in (i, j))
            for i in range(4)
            for j in range(i + 1, 4)
            for y in ch.output_alphabet
        )
        trip = sum(
            min(p[y] for k, p in enumerate(fam) if k != i)
            for i in range(4)
            for y in ch.output_alphabet
        )
        if tau_max2(ch) != pair - 2 * trip + 3 * doeblin(ch):
            defects += 1
    _report(
        "6a",
        "tau_max2 = tau_pair - 2 tau_trip + 3 tau at four rows",
        defects == 0,
        "1000 channels",
    )
    assert defects == 0


def test_criterion_6b_symmetric_channel_threshold():
    # Each column of the q-ary symmetric channel holds 1 - delta once and
    # delta/(q-1) q - 1 times. For q >= 3 the off-diagonal value occurs at
    # least twice, so the second maximum (ties with multiplicity) is always
    # delta/(q-1) and tau_max2 = q delta/(q-1), which is <= 1 iff
    # delta <= 1 - 1/q. For q = 2 the second maximum is min(delta, 1 - delta),
    # so tau_max2 = 2 min(delta, 1 - delta) <= 1 at every crossover, with
    # equality only at delta = 1/2: the forward implication holds, the
    # reverse one is false for delta > 1/2 and is not asserted.
    violations = []
    for q in range(2, 6):
        for k in range(11):
            delta = Q(k, 10)
            t2 = tau_max2(make_q_ary_symmetric(q, delta))
            if q == 2:
                ok = t2 == 2 * min(delta, 1 - delta) and t2 <= 1
                ok = ok and (t2 == 1) == (delta == Q(1, 2))
            else:
                ok = t2 == q * delta / (q - 1)
                ok = ok and (t2 <= 1) == (delta <= 1 - Q(1, q))
            if not ok:
                violations.append((q, delta, t2))
    _report(
        "6b",
        "q-ary symmetric: tau_max2 = q delta/(q-1), <= 1 iff delta <= 1 - 1/q"
        " for q >= 3; tau_max2 = 2 min(delta, 1 - delta) <= 1 for q = 2",
        not violations,
        f"violations at {violations}" if violations else "44 grid points",
    )
    assert not violations, violations


def test_criterion_6c_erasure_tau_max2():
    defects = []
    for q in range(2, 6):
        for k in range(11):
            eps = Q(k, 10)
            if tau_max2(make_erasure(q, eps)) != eps:
                defects.append((q, eps))
    _report("6c", "erasure channel tau_max2 equals eps", not defects, "44 grid points")
    assert not defects, defects


NETWORK_FIXTURES = [
    "chain.json",
    "relay.json",
    "diamond.json",
    "random1.json",
    "random2.json",
]
FIXTURE_TARGETS = {
    "chain.json": "Y1,Y2",
    "relay.json": "Y1,Y2",
    "diamond.json": "Y1,Y2,Y3",
    "random1.json": "N2,N3",
    "random2.json": "N2,N3",
}


def test_criterion_7_cli_round_trip_and_soundness(capsys):
    defects = []
    for name in NETWORK_FIXTURES + ["bad_rowsum.json", "cyclic.json"]:
        text = (FIXTURES / name).read_text()
        once = write_network(parse_network(text))
        twice = write_network(parse_network(once))
        if once != twice:
            defects.append(("round trip", name))
    for name in NETWORK_FIXTURES:
        net = parse_network((FIXTURES / name).read_text())
        if validate(net):
            defects.append(("validate", name))
        code = cli_main(
            [
                "bound",
                str(FIXTURES / name),
                "--targets",
                FIXTURE_TARGETS[name],
                "--compare-exact",
            ]
        )
        capsys.readouterr()
        if code != 0:
            defects.append(("exit code", name, code))
    with capsys.disabled():
        _report(
            "7",
            "fixture files round-trip; compare-exact exits 0",
            not defects,
            f"{len(NETWORK_FIXTURES) + 2} files",
        )
    assert not defects, defects
