"""Command-line behavior: exit codes, output shape, determinism."""

import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from helpers import rand_couplable_net, wide_net
from test_couplings import FAILING_FAMILY

import leakbound
from leakbound.cli import main
from leakbound.netfile import write_network

FIXTURES = Path(__file__).parent / "fixtures"

# `bound` on wide_v4.json, whose single peel step has a V-side of 288
# values and a four-way Y-coupling of 259,308 tuples.
WIDE_ARGV = (
    "--targets", "X,N1,N2,N3,N4,N5,N6", "--method", "coupling", "--compare-exact",
)
WIDE_STDOUT = (
    'query: X -> {N1, N2, N3, N4, N5, N6, X} [coupling]\n'
    'exact tau_max      = 4/1\n'
    'exact leakage      = 1.38629436112\n'
    'coupling bound     = 34958385950587/6597069766656 (log 1.66753280556)\n'
    'subadditivity      = 47/6 (log 2.05838813248)\n'
    'precondition tau_max2(P_{N6|pa}) <= 1: 1/24 [pass]\n'
    'precondition four-way pair-capacity condition for P_{N1+N2+N3+N4+N5+X|X}: 1 [pass]\n'
    'soundness: OK\n'
)
WIDE_CSV = (
    'node,tau,tau_max,tau_max2,bound_method,bound_value,exact_value,gap,preconditions\n'
    'N1,3/4,21/16,1/1,,,,,\n'
    'N2,3/4,43/32,1/1,,,,,\n'
    'N3,0/1,2/1,1/1,,,,,\n'
    'N4,5/8,11/8,1/1,,,,,\n'
    'N5,7/8,9/8,1/1,,,,,\n'
    'N6,1/24,47/24,1/24,,,,,\n'
    ',,,,coupling,34958385950587/6597069766656,4/1,8570106883963/6597069766656,tau_max2(P_{N6|pa}) <= 1=1/24:pass; four-way pair-capacity condition for P_{N1+N2+N3+N4+N5+X|X}=1:pass\n'
    ',,,,subadditivity,47/6,4/1,23/6,tau_max2(P_{N6|pa}) <= 1=1/24:pass; four-way pair-capacity condition for P_{N1+N2+N3+N4+N5+X|X}=1:pass\n'
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_clean_file(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "chain.json")
        assert code == 0 and "ok" in out

    def test_bad_rowsum_exit_one(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "bad_rowsum.json")
        assert code == 1
        assert "Y1 row 0" in out and "9/10" in out

    def test_cycle_named(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "cyclic.json")
        assert code == 1 and "cycle" in out

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run(capsys, "validate", FIXTURES / "nope.json")
        assert code == 3 and "i/o" in err


class TestMeasures:
    def test_bsc_quarter(self, capsys):
        code, out, _ = run(capsys, "measures", FIXTURES / "chain.json", "--node", "Y1")
        assert code == 0
        assert "tau_max   = 3/2" in out
        assert "tau_max2  = 1/2" in out
        assert "tau       = 1/2" in out
        assert "leakage   = 0.405465108108" in out

    def test_unknown_node(self, capsys):
        code, out, _ = run(capsys, "measures", FIXTURES / "chain.json", "--node", "W")
        assert code == 1

    def test_source_node_refused(self, capsys):
        code, out, _ = run(capsys, "measures", FIXTURES / "chain.json", "--node", "X")
        assert (code, out) == (1, "the source node carries no distribution\n")


class TestBound:
    def test_chain_recursive_report(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "bound",
            FIXTURES / "chain.json",
            "--targets",
            "Y1,Y2",
            "--compare-exact",
            "--csv",
            csv_path,
        )
        assert code == 0
        assert "exact tau_max      = 3/2" in out
        assert "doeblin bound      = 2/1" in out
        assert "soundness: OK" in out
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        methods = {r["bound_method"] for r in rows if r["bound_method"]}
        assert methods == {"coupling", "doeblin", "subadditivity"}
        node_rows = [r for r in rows if r["node"]]
        assert {r["node"] for r in node_rows} == {"Y1", "Y2"}
        assert all(r["tau_max"] == "3/2" for r in node_rows)

    @pytest.mark.parametrize(
        "name", ["chain.json", "relay.json", "diamond.json", "random1.json", "random2.json"]
    )
    def test_compare_exact_all_fixtures(self, capsys, name):
        code, out, _ = run(
            capsys, "bound", FIXTURES / name, "--targets", _targets(name),
            "--compare-exact",
        )
        assert code == 0
        assert "soundness: OK" in out

    def test_single_step_method(self, capsys):
        code, out, _ = run(
            capsys, "bound", FIXTURES / "chain.json", "--targets", "Y1,Y2",
            "--method", "doeblin",
        )
        assert code == 0 and "doeblin bound      = 2/1" in out

    def test_source_alone_refused_by_recursive(self, capsys):
        path = FIXTURES / "relay.json"
        code, out, err = run(capsys, "bound", path, "--targets", "X")
        assert code == 1 and out == ""
        assert err == "error: the source cannot be a bound target\n"
        for method in ("coupling", "doeblin"):
            code, out, _ = run(capsys, "bound", path, "--targets", "X", "--method", method)
            assert code == 0 and "exact tau_max      = 2/1" in out

    @pytest.mark.parametrize("method", ["coupling", "doeblin"])
    def test_single_peel_never_peels_the_source(self, capsys, tmp_path, method):
        # The root A sorts before the source X, so X is the topologically
        # last target; the single peel takes A off instead.
        doc = {
            "format_version": 1,
            "source": "X",
            "nodes": [
                {"id": "X", "alphabet": 2, "parents": []},
                {"id": "A", "alphabet": 2, "parents": [], "cpt": [["1/3", "2/3"]]},
                {"id": "Y", "alphabet": 2, "parents": ["A", "X"],
                 "cpt": [["3/4", "1/4"], ["1/4", "3/4"], ["1/2", "1/2"], ["0", "1"]]},
            ],
        }
        path = tmp_path / "roots.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "bound", path, "--targets", "A,X", "--method", method,
            "--compare-exact",
        )
        assert (code, err) == (0, "")
        assert "exact tau_max      = 2/1" in out and "soundness: OK" in out

    @pytest.mark.parametrize("method", ["recursive", "coupling", "doeblin"])
    def test_one_symbol_source_reported(self, capsys, method):
        # Every V-side channel has one row, which is its own coupling, so
        # each penalized bound equals the exact value 1.
        code, out, err = run(
            capsys, "bound", FIXTURES / "one_symbol_source.json", "--targets", "Y,Z",
            "--method", method, "--compare-exact",
        )
        assert (code, err) == (0, "")
        assert "exact tau_max      = 1/1\n" in out and "soundness: OK" in out
        assert "|X}: trivial (one row) [pass]" in out
        for name in ("coupling", "doeblin"):
            if method in ("recursive", name):
                assert f"{name + ' bound':<18} = 1/1 (log 0)\n" in out

    @pytest.mark.parametrize("method", ["recursive", "coupling", "doeblin"])
    def test_csv_lists_the_bounds_shown(self, capsys, tmp_path, method):
        # A single peel computes its own bound and the baseline only; the
        # CSV lists no row for the bound it did not compute.
        out_csv = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "bound", FIXTURES / "one_symbol_source.json", "--targets", "Y,Z",
            "--method", method, "--csv", out_csv,
        )
        assert code == 0
        with out_csv.open(encoding="utf-8", newline="") as handle:
            listed = [row["bound_method"] for row in csv.DictReader(handle)
                      if row["bound_method"]]
        shown = {
            "recursive": ["coupling", "doeblin", "subadditivity"],
            "coupling": ["coupling", "subadditivity"],
            "doeblin": ["doeblin", "subadditivity"],
        }[method]
        assert listed == shown
        assert "inapplicable" not in out_csv.read_text(encoding="utf-8")
        for name in ("coupling bound", "doeblin bound", "subadditivity"):
            assert (f"{name:<18} = " in out) == (name.split()[0] in shown)

    def test_repeated_targets_listed_once(self, capsys):
        code, out, _ = run(capsys, "bound", FIXTURES / "chain.json", "--targets", "Y1,Y1,Y2")
        assert code == 0
        assert "query: X -> {Y1, Y2} [recursive]\n" in out

    def test_inapplicable_marked_and_exit_one(self, capsys, tmp_path):
        # three-cycle V channel: preconditions fail, exact still printed
        bad = {
            "format_version": 1,
            "source": "X",
            "nodes": [
                {"id": "X", "alphabet": 3, "parents": []},
                {"id": "Y1", "alphabet": 3, "parents": ["X"],
                 "cpt": [["1/2", "1/2", "0"], ["0", "1/2", "1/2"], ["1/2", "0", "1/2"]]},
                {"id": "Y2", "alphabet": 2, "parents": ["Y1"],
                 "cpt": [["1", "0"], ["0", "1"], ["1", "0"]]},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "bound", path, "--targets", "Y1,Y2")
        assert code == 1
        assert "inapplicable" in out
        assert "exact tau_max" in out

    def test_wide_v_side_lists_no_y_tuple(self, capsys, tmp_path):
        # The coupling penalty is read off the mixture's parts, so this
        # query answers in well under a second.
        out_csv = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "bound", FIXTURES / "wide_v4.json", *WIDE_ARGV, "--csv", out_csv
        )
        assert code == 0
        assert out == WIDE_STDOUT
        assert out_csv.read_text(encoding="utf-8") == WIDE_CSV

    def test_each_cpt_measured_once(self, capsys, tmp_path, monkeypatch):
        # The peel steps and the CSV rows read one measure_set per CPT.
        measured, real = [], leakbound.bayesnet.measure_set
        monkeypatch.setattr(leakbound.bayesnet, "measure_set",
                            lambda channel: measured.append(channel) or real(channel))
        code, out, _ = run(
            capsys, "bound", FIXTURES / "wide_v4.json", "--targets", "N3,N4,N6",
            "--method", "recursive", "--csv", tmp_path / "out.csv",
        )
        assert code == 0
        assert len(measured) == 6  # N1 to N6, the peeled N6 and N5 among them
        assert "tau_max2(P_{N5|pa})" in out and "tau_max2(P_{N6|pa})" in out

    def test_steps_keep_their_column_order(self, capsys):
        # Each step's joints are read off the targets' walk. A, outside
        # every closure of the query, comes before the steps' nodes in
        # topological order, and CPTs have zero entries. f follows the
        # column order of the steps' own walks (reversed, the coupling
        # bound would read 713/256).
        code, out, err = run(
            capsys, "bound", FIXTURES / "outside_zeros.json", "--targets", "N1,N2,N3",
            "--compare-exact",
        )
        assert (code, err) == (0, "")
        assert "exact tau_max      = 13/8\n" in out
        assert "coupling bound     = 641/256 (log 0.917852012441)\n" in out
        assert "doeblin bound      = 821/256 (log 1.16534566497)\n" in out
        assert "subadditivity      = 1001/256 (log 1.36357733484)\n" in out

    def test_five_valued_source_solves_no_lp(self, capsys):
        # The first peel couples |X| = 5 rows over the 25 values of
        # (N1, N2); an LP over those tuples would have 25**5 + 25 =
        # 9,765,650 variables. The interval Y-coupling answers instead.
        code, out, err = run(
            capsys, "bound", FIXTURES / "star5.json", "--targets", "N1,N2,N3",
            "--compare-exact",
        )
        assert (code, err) == (0, "")
        assert "exact tau_max      = 97837/20736\n" in out
        assert "coupling bound     = 61063195/663552 (log 4.52205736753)\n" in out
        assert "doeblin bound      = 122568107/1327104 (log 4.52566772645)\n" in out
        assert "precondition tau_max2 <= 1 for P_{N1+N2|X}: 2579/10368 [pass]\n" in out
        assert "soundness: OK" in out
        assert Q(61063195, 663552) < Q(122568107, 1327104)

    def test_failed_recursion_shows_the_checks_that_passed(self, capsys, tmp_path):
        # The first peel (N3) passes both checks; the second fails on N2's
        # own CPT. Text and CSV show all three checks, in order.
        out_csv = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "bound", FIXTURES / "random1.json", "--targets", "N1,N2,N3",
            "--compare-exact", "--csv", out_csv,
        )
        assert (code, err) == (1, "")
        checks = [
            "tau_max2(P_{N3|pa}) <= 1: 1 [pass]",
            "tau_max2 <= 1 for P_{N1+N2|X}: 1811/2304 [pass]",
            "tau_max2(P_{N2|pa}) <= 1: 73/64 [FAIL]",
        ]
        assert "".join(f"precondition {c}\n" for c in checks) + "soundness: OK\n" in out
        assert "; ".join(
            c.replace(": ", "=").replace(" [pass]", ":pass").replace(" [FAIL]", ":FAIL")
            for c in checks
        ) in out_csv.read_text(encoding="utf-8")


def _targets(name):
    return {
        "chain.json": "Y1,Y2",
        "relay.json": "Y1,Y2",
        "diamond.json": "Y1,Y2,Y3",
        "random1.json": "N2,N3",
        "random2.json": "N2,N3",
    }[name]


class TestCouple:
    def test_n4_mode(self, capsys):
        code, out, _ = run(
            capsys, "couple", FIXTURES / "pmfs_n4.json", "--mode", "n4", "--dump"
        )
        assert code == 0
        assert "marginals OK" in out
        assert "union mass = 2/1; tau_max = 2/1 [OK]" in out
        assert "intersection property: OK" in out
        assert "0,0,2,2 : 1/4" in out

    def test_n4_mode_computes_ingredients_once(self, capsys, monkeypatch):
        # The slack line and the build share one ingredient computation;
        # the report is the one the double computation printed.
        from leakbound import couplings

        calls = []
        original = couplings.n4_ingredients

        def counting(pmfs):
            calls.append(1)
            return original(pmfs)

        monkeypatch.setattr(couplings, "n4_ingredients", counting)
        code, out, _ = run(
            capsys, "couple", FIXTURES / "pmfs_n4.json", "--mode", "n4", "--dump"
        )
        assert code == 0 and len(calls) == 1
        assert out == (
            "condition slack = 0/1 [holds]\n"
            "marginals OK (verified exactly)\n"
            "union mass = 2/1; tau_max = 2/1 [OK]\n"
            "intersection property: OK\n"
            "support size = 4\n"
            "0,0,2,2 : 1/4\n"
            "0,0,3,3 : 1/4\n"
            "1,1,2,2 : 1/4\n"
            "1,1,3,3 : 1/4\n"
        )

    def test_lp_mode_strict_gap(self, capsys):
        code, out, _ = run(
            capsys, "couple", FIXTURES / "pmfs_cycle3.json", "--mode", "lp"
        )
        assert code == 0
        assert "LP optimum  = 2/1" in out
        assert "optimum exceeds tau_max" in out

    def test_lp_diag_mode(self, capsys):
        code, out, _ = run(
            capsys, "couple", FIXTURES / "pmfs_cycle3.json", "--mode", "lp", "--diag"
        )
        assert code == 0 and "LP optimum  = 2/1" in out

    def test_simul_mode(self, capsys):
        code, out, _ = run(
            capsys, "couple", FIXTURES / "joints_pair.json", "--mode", "simul"
        )
        assert code == 0
        assert "[OK]" in out
        assert "f quantity" in out

    def test_n4_mode_failing_condition(self, capsys, tmp_path):
        # The four-way condition fails: the report gives the slack and
        # tau_max2, builds nothing and exits 1.
        path = tmp_path / "failing.json"
        path.write_text(json.dumps({
            "alphabet": ["0", "1", "2", "3"],
            "pmfs": [[str(q) for q in p.values()] for p in FAILING_FAMILY],
        }))
        code, out, _ = run(capsys, "couple", path, "--mode", "n4")
        assert (code, out) == (
            1,
            "condition slack = -1/16 [fails]\n"
            "tau_max2 = 19/16; no construction\n",
        )

    def test_mode_document_mismatch(self, capsys):
        code, out, _ = run(
            capsys, "couple", FIXTURES / "joints_pair.json", "--mode", "n4"
        )
        assert code == 1
        # A joint PMF is a Pmf, yet not a "pmfs" document.
        code, out, _ = run(
            capsys, "couple", FIXTURES / "joints_pair.json", "--mode", "lp"
        )
        assert (code, out) == (1, 'lp mode needs a "pmfs" document\n')


class TestCapacityAndOverrides:
    def test_couple_capacity_exit_two(self, capsys):
        code, _, err = run(
            capsys, "couple", FIXTURES / "pmfs_cycle3.json", "--mode", "lp",
            "--max-states", "4",
        )
        assert code == 2 and "capacity" in err

    def test_bound_capacity_exit_two(self, capsys):
        code, _, err = run(
            capsys, "bound", FIXTURES / "diamond.json", "--targets", "Y1,Y2,Y3",
            "--max-states", "3",
        )
        assert code == 2

    def test_coupling_penalty_needs_no_support_limit(self, capsys, tmp_path):
        # Every closure joint of this query fits in 32 states (it needs
        # 24), while the simultaneous coupling of its first peel step, on
        # the interval Y-coupling of three rows, would have 34 support
        # tuples. The penalty is read off the coupling's table and never
        # builds that support, so the query answers under the small limit
        # with the values it has under the default one.
        rng = random.Random(322)
        net = rand_couplable_net(rng, rng.randrange(3, 6))
        path = tmp_path / "net.json"
        path.write_text(write_network(net))
        argv = ("bound", path, "--targets", "N3,N4", "--compare-exact")
        code, default_out, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--max-states", "32")
        assert code == 0, err
        assert out == default_out
        assert "coupling bound     = 213691/36864" in out

    def test_simul_support_limit_still_refused(self, capsys):
        args = ("couple", FIXTURES / "joints_pair.json", "--mode", "simul")
        code, out, _ = run(capsys, *args, "--max-states", "3")
        assert code == 0 and "support size = 3" in out
        code, _, err = run(capsys, *args, "--max-states", "2")
        assert code == 2 and "coupling support tuples" in err

    def test_n4_support_limit_refused(self, capsys):
        args = ("couple", FIXTURES / "pmfs_n4.json", "--mode", "n4")
        code, out, _ = run(capsys, *args, "--max-states", "4")
        assert code == 0 and "support size = 4" in out
        code, _, err = run(capsys, *args, "--max-states", "3")
        assert code == 2 and "coupling support tuples" in err

    def test_unrelated_children_do_not_count(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(write_network(wide_net()))
        code, out, err = run(
            capsys, "bound", path, "--targets", "Y", "--compare-exact"
        )
        assert code == 0, err
        assert "exact tau_max      = 3/2" in out

    def test_bound_source_override_rejected_when_not_root(self, capsys):
        code, _, err = run(
            capsys, "bound", FIXTURES / "chain.json", "--targets", "Y2",
            "--source", "Y1",
        )
        # Y1 has a parent, so it cannot serve as the conditioning source
        assert code == 1 and "source" in err

    def test_measures_root_prior_node(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "source": "X",
            "nodes": [
                {"id": "X", "alphabet": 2, "parents": []},
                {"id": "R", "alphabet": 2, "parents": [], "cpt": [["1/3", "2/3"]]},
            ],
        }
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "measures", path, "--node", "R")
        assert code == 0
        assert "tau_max2  = undefined" in out
        assert "tau_max   = 1/1" in out


NET_HEAD = {"format_version": 1, "source": "X"}
X_NODE = {"id": "X", "alphabet": 2, "parents": []}
BSC = [["3/4", "1/4"], ["1/4", "3/4"]]


@pytest.mark.parametrize(
    "command,doc",
    [
        ("bound", {**NET_HEAD, "nodes": 5}),
        ("bound", {**NET_HEAD, "nodes": [
            X_NODE, {"id": "Y", "alphabet": 2, "parents": ["X"], "cpt": [1]}]}),
        ("bound", {**NET_HEAD, "nodes": [
            X_NODE, {"id": "Y", "alphabet": 2, "parents": "X", "cpt": BSC}]}),
        ("couple", {"alphabet": ["0", "1"], "pmfs": [1]}),
        ("couple", {"alphabet": 5, "pmfs": [["1/2", "1/2"]]}),
        ("couple", {"x_alphabet": ["0"], "y_alphabet": ["0"], "joints": [5]}),
        ("couple", {"x_alphabet": ["0"], "y_alphabet": ["0"], "joints": [[5]]}),
    ],
    ids=["nodes-int", "cpt-row-int", "parents-str", "pmf-int", "alphabet-int",
         "joint-int", "joint-row-int"],
)
def test_malformed_file_exit_one(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    extra = ["--targets", "Y"] if command == "bound" else ["--mode", "lp"]
    code, _, err = run(capsys, command, path, *extra)
    assert code == 1
    assert "must be a list" in err
    if command == "bound":
        code, out, _ = run(capsys, "validate", path)
        assert code == 1 and "must be a list" in out


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_alphabet_exit_one(capsys, tmp_path, flag):
    # JSON booleans load as Python bools, which are ints: true once
    # passed as an alphabet of size 1.
    doc = {**NET_HEAD, "nodes": [
        {"id": "X", "alphabet": flag, "parents": []},
        {"id": "Y", "alphabet": 2, "parents": ["X"], "cpt": [["1/2", "1/2"]]}]}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1 and out == "parse error: node X: bad alphabet\n"
    code, _, err = run(capsys, "measures", path, "--node", "Y")
    assert code == 1 and err == "error: node X: bad alphabet\n"


@pytest.mark.parametrize("axis", ["x_alphabet", "y_alphabet"])
def test_repeated_joint_symbol_exit_one(capsys, tmp_path, axis):
    # Each matrix sums to 2. A repeated symbol maps two cells to one key,
    # so without the alphabet check the collapsed law sums to 1 and passes.
    half = [["1/2", "1/2"], ["1/2", "1/2"]]
    doc = {"x_alphabet": ["0", "1"], "y_alphabet": ["a", "b"], "joints": [half, half]}
    doc[axis] = [doc[axis][0]] * 2
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "couple", path, "--mode", "simul")
    assert code == 1
    assert "duplicate symbols" in err
    assert "verified" not in out


class TestOverlongOutput:
    """An exact value whose numerator or denominator passes 4300 digits
    cannot be written by str() and is never abbreviated: it is refused
    with exit 2 and one message, and nothing else is written."""

    # Two coprime 2,201-digit denominators: the file is valid, but Y1's
    # measures and every bound on Y1, Y2 have 4,401-digit denominators.
    A, B = 10**2200 + 1, 10**2200 + 3
    REFUSED = ("capacity: refusing to write <14617-bit integer> in an exact output "
               "(limit 4300 digits)\n")

    @classmethod
    def net(cls, tmp_path):
        doc = json.loads((FIXTURES / "chain.json").read_text())
        doc["nodes"][1]["cpt"] = [[f"1/{cls.A}", f"{cls.A - 1}/{cls.A}"],
                                  [f"1/{cls.B}", f"{cls.B - 1}/{cls.B}"]]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        return path

    def test_measures(self, capsys, tmp_path):
        path = self.net(tmp_path)
        assert run(capsys, "validate", path)[0] == 0
        assert run(capsys, "measures", path, "--node", "Y1") == (2, "", self.REFUSED)

    def test_bound_writes_no_csv(self, capsys, tmp_path):
        path, out_csv = self.net(tmp_path), tmp_path / "report.csv"
        for extra in ([], ["--compare-exact"], ["--method", "doeblin"], ["--csv", out_csv]):
            got = run(capsys, "bound", path, "--targets", "Y1,Y2", *extra)
            assert got == (2, "", self.REFUSED), extra
        assert not out_csv.exists()

    def test_sweep_writes_no_csv(self, capsys, tmp_path):
        # d = 1/A puts A**2 in the denominator of P(Y2 | X).
        out_csv = tmp_path / "sweep.csv"
        got = run(capsys, "sweep", FIXTURES / "chain_template.json", "--param", "d",
                  "--range", f"1/{self.A}:1/{self.A}:1", "--targets", "Y1,Y2",
                  "--out", out_csv)
        assert got[:2] == (2, "") and got[2].startswith("capacity: refusing to write <")
        assert got[2].endswith("-bit integer> in an exact output (limit 4300 digits)\n")
        assert not out_csv.exists()


class TestSweep:
    def test_chain_singleton_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            FIXTURES / "chain_template.json",
            "--param", "d",
            "--range", "0:1/2:1/8",
            "--targets", "Y2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["d"] for r in rows] == ["0", "1/8", "1/4", "3/8", "1/2"]
        assert rows[0]["exact"] == "2/1"          # identity chain leaks a bit
        assert rows[-1]["exact"] == "1/1"         # fair coin erases everything
        for r in rows:
            assert r["exact"] == r["doeblin_bound"] == r["baseline"]
        values = [r["exact"] for r in rows]
        floats = [eval(v.replace("/", "/ ")) for v in values]
        assert floats == sorted(floats, reverse=True)

    def test_relay_improvement_curve(self, capsys):
        # on the relay shape the positive Doeblin penalty makes the bound
        # strictly better than the penalty-free product at every noise level
        code, out, _ = run(
            capsys,
            "sweep",
            FIXTURES / "relay_template.json",
            "--param", "d",
            "--range", "1/8:3/8:1/8",
            "--targets", "Y1,Y2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        for r in rows:
            from fractions import Fraction

            exact = Fraction(r["exact"])
            doeblin = Fraction(r["doeblin_bound"])
            coupling = Fraction(r["coupling_bound"])
            baseline = Fraction(r["baseline"])
            assert exact <= coupling <= doeblin < baseline

    def test_pair_targets_bound_vs_exact(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            FIXTURES / "chain_template.json",
            "--param", "d",
            "--range", "0:1/2:1/4",
            "--targets", "Y1,Y2",
            "--out", out_path,
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        for r in rows:
            num, den = r["doeblin_bound"].split("/")
            bnum, bden = r["exact"].split("/")
            assert int(num) * int(bden) >= int(bnum) * int(den)


    def test_range_counted_before_listing(self, capsys, monkeypatch):
        # 10^9 + 1 values exceed the default budget of 10^6: the range is
        # refused before any value is listed or any network is loaded.
        from leakbound import cli

        def no_load(*args, **kwargs):
            raise AssertionError("a sweep value was evaluated")

        monkeypatch.setattr(cli, "_load_net", no_load)
        code, out, err = run(
            capsys, "sweep", FIXTURES / "chain_template.json",
            "--param", "d", "--range", "0:1:1/1000000000", "--targets", "Y2",
        )
        assert (code, out) == (2, "")
        assert err == (
            "capacity: refusing to enumerate 1000000001 sweep values (limit 1000000); "
            "raise the limit explicitly if this is intentional\n"
        )

    def test_range_limit_is_max_states(self, capsys):
        argv = ("sweep", FIXTURES / "chain_template.json", "--param", "d",
                "--range", "0:1/2:1/8", "--targets", "Y2")
        code, out, _ = run(capsys, *argv, "--max-states", "5")
        assert code == 0 and len(out.splitlines()) == 6
        code, _, err = run(capsys, *argv, "--max-states", "4")
        assert code == 2 and "5 sweep values (limit 4)" in err

    def test_unknown_source_named_like_bound(self, capsys):
        for command, extra in (("bound", []), ("sweep", ["--param", "d", "--range", "0:1:1/2"])):
            path = FIXTURES / ("chain.json" if command == "bound" else "chain_template.json")
            code, out, err = run(capsys, command, path, "--targets", "Y2", "--source", "Q", *extra)
            assert (code, out, err) == (1, "", "error: --source 'Q' is not a node\n")


def test_python_dash_m_runs_the_cli():
    # the package as imported here, whether installed or on PYTHONPATH
    src = str(Path(leakbound.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "leakbound", "couple",
         "tests/fixtures/pmfs_cycle3.json", "--mode", "lp"],
        cwd=FIXTURES.parent.parent, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "LP optimum  = 2/1" in proc.stdout


class TestUsageErrors:
    """A usage error exits 1 with argparse's message on stderr; exit 2 is
    left to capacity refusals, and ``-h`` still exits 0."""

    CHAIN = FIXTURES / "chain.json"

    @pytest.mark.parametrize("argv, message", [
        (("bound", CHAIN), "the following arguments are required: --targets"),
        (("bound", CHAIN, "--targets", "Y1,Y2", "--method", "best"),
         "argument --method: invalid choice: 'best'"),
        (("bound", CHAIN, "--targets", "Y1,Y2", "--max-states", "abc"),
         "argument --max-states: invalid positive_int value: 'abc'"),
        (("bound", CHAIN, "--targets", "Y1,Y2", "--max-states", "0"),
         "argument --max-states: must be at least 1, got 0"),
        (("sweep", CHAIN, "--param", "d", "--range", "0:1:1/2", "--targets", "Y2",
          "--max-states", "-5"), "argument --max-states: must be at least 1, got -5"),
        (("couple", FIXTURES / "pmfs_n4.json", "--mode", "n3"),
         "argument --mode: invalid choice: 'n3'"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        ((), "the following arguments are required: command"),
    ], ids=["missing-targets", "bad-method", "max-states-abc", "max-states-0",
            "max-states-negative", "bad-mode", "bad-command", "no-command"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: leakbound")
        assert f": error: {message}" in err.splitlines()[-1]

    def test_smallest_budget_is_accepted(self, capsys):
        # --max-states 1 is a valid budget: the query is refused for
        # capacity (exit 2), not as a usage error.
        code, _, err = run(capsys, "bound", self.CHAIN, "--targets", "Y1,Y2",
                           "--max-states", "1")
        assert code == 2 and err.startswith("capacity:")

    @pytest.mark.parametrize("argv", [("-h",), ("bound", "-h")])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: leakbound")
