"""File formats: exact parsing, canonical round-trips, expressions."""

from fractions import Fraction as Q
from pathlib import Path

import pytest

from leakbound import CapacityError, NetworkFormatError, netfile, validate
from leakbound.netfile import (
    eval_rational_expression,
    parse_network,
    parse_pmf_file,
    parse_probability,
    parse_range,
    write_network,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseProbability:
    def test_fraction_string(self):
        assert parse_probability("3/4") == Q(3, 4)

    def test_decimal_string_is_exact(self):
        assert parse_probability("0.25") == Q(1, 4)
        assert parse_probability("0.1") == Q(1, 10)

    def test_integers(self):
        assert parse_probability(1) == 1
        assert parse_probability("0") == 0

    def test_float_rejected(self):
        with pytest.raises(NetworkFormatError):
            parse_probability(0.25)

    def test_garbage_rejected(self):
        with pytest.raises(NetworkFormatError):
            parse_probability("one half")

    @pytest.mark.parametrize("text", [
        "1e-4300", "1e4300", "2.5e-4301", "1e-10000000", "-7e99999999",
        "0.5e-" + "9" * 5000, "0." + "0" * 4299 + "1",
    ])
    def test_over_4300_digits_refused(self, text):
        # Refused before 10**|exponent| is built: each takes microseconds.
        with pytest.raises(NetworkFormatError, match="more than 4300 digits"):
            parse_probability(text)

    @pytest.mark.parametrize("text", [
        "1e-4299", "1e4299", "10e-4300", "2.5e-4300", "1" + "0" * 4000 + "e-8000",
        "2.5e-3", "1.e2", ".5E+1", " 3e-1 ", "-1e-5", "0e-99999999", "-0.0e99999999",
    ])
    def test_exponents_within_the_limit_match_fraction(self, text):
        assert parse_probability(text) == Q(text.replace("99999999", "0"))

    def test_large_json_integer_refused(self):
        with pytest.raises(NetworkFormatError, match="more than 4300 digits"):
            parse_probability(10**4300)
        assert parse_probability(10**4300 - 1) == 10**4300 - 1


def _outcome(parse, text):
    try:
        return parse(text)
    except NetworkFormatError as err:
        return str(err)


def _by_fraction(text: str) -> Q:
    """parse_probability on an exponent-free string, all through Fraction."""
    try:
        return netfile._within_digits(Q(text), repr(text))
    except (ValueError, ZeroDivisionError) as err:
        raise NetworkFormatError(f"bad probability {text!r}: {err}") from None


class TestRatioFastPath:
    """A ratio of ASCII digits is read with int(); every string gives the
    value, or the message, that Fraction gives."""

    READ_WITH_INT = ["3/4", "03/04", "0/5", "0000/0001", "9" * 4300 + "/7",
                     "1/" + "9" * 4300, "2" * 4300 + "/" + "4" * 4300]
    OTHERS = ["5/0", "00/000", "+3/4", "-3/4", "- 3/4", " 3/4", "3/4 ", "\t3/4\n",
              "3 /4", "3/ 4", "1_0/3", "1/1_0", "\u00b2/3", "3/\u00b2", "\u0663/\u0664",
              "1/2/3", "/3", "3/", "/", "0x1/2", "3/4.0", "9" * 4301 + "/7",
              "1/" + "1" * 4301, "0" * 4301 + "1/2", "1" + "0" * 4300 + "/1"]

    @pytest.mark.parametrize("text", READ_WITH_INT + OTHERS,
                             ids=lambda t: t if len(t) < 20 else f"{t[:4]}..{t[-4:]}({len(t)})")
    def test_same_value_or_message_as_fraction(self, text):
        assert _outcome(parse_probability, text) == _outcome(_by_fraction, text)

    def test_plain_ratios_skip_the_regex(self, monkeypatch):
        monkeypatch.setattr(netfile, "_EXPONENT_FORM", None)  # any use raises
        for text in self.READ_WITH_INT:
            assert parse_probability(text) == Q(text)

    def test_a_repeated_entry_is_parsed_once(self, monkeypatch):
        parsed, real = [], netfile.parse_probability
        monkeypatch.setattr(netfile, "parse_probability", lambda v: parsed.append(v) or real(v))
        net = parse_network((FIXTURES / "diamond.json").read_text())
        assert sorted(parsed) == ["1/2", "1/4", "3/4"]  # of 20 entries
        assert validate(net) == []


class TestExpressions:
    def test_arithmetic(self):
        d = {"d": Q(1, 8)}
        assert eval_rational_expression("1 - d", d) == Q(7, 8)
        assert eval_rational_expression("d/3 + 1/2", d) == Q(13, 24)
        assert eval_rational_expression("-(d - 1)", d) == Q(7, 8)

    def test_unknown_name(self):
        with pytest.raises(NetworkFormatError):
            eval_rational_expression("1 - q", {"d": Q(1, 2)})

    def test_float_literal_rejected(self):
        with pytest.raises(NetworkFormatError):
            eval_rational_expression("0.3 + d", {"d": Q(0)})

    def test_call_rejected(self):
        with pytest.raises(NetworkFormatError):
            eval_rational_expression("__import__('os')", {})

    def test_division_by_zero(self):
        with pytest.raises(NetworkFormatError):
            eval_rational_expression("1/(d - d)", {"d": Q(1, 2)})


class TestNetworkRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["chain.json", "relay.json", "diamond.json", "random1.json", "random2.json",
         "outside_zeros.json"],
    )
    def test_parse_write_fixed_point(self, name):
        text = (FIXTURES / name).read_text()
        once = write_network(parse_network(text))
        twice = write_network(parse_network(once))
        assert once == twice

    def test_integer_alphabet_expands(self):
        net = parse_network(
            '{"source": "X", "nodes": [{"id": "X", "alphabet": 3, "parents": []}]}'
        )
        assert net.by_id["X"].alphabet == ("0", "1", "2")

    @pytest.mark.parametrize("symbols", ["[true, false]", "[null, 1]", "[0.5, 1]", "[[0], 1]"])
    def test_non_symbol_alphabet_entries_rejected(self, symbols):
        # JSON strings and integers name symbols; str() of anything else
        # ("True", "None") would pass for one.
        with pytest.raises(NetworkFormatError, match="not a string or integer"):
            parse_network(
                '{"source": "X", "nodes": [{"id": "X", "alphabet": %s, "parents": []}]}'
                % symbols
            )
        with pytest.raises(NetworkFormatError, match="not a string or integer"):
            parse_pmf_file('{"alphabet": %s, "pmfs": [["1/2", "1/2"]]}' % symbols)

    def test_mixed_string_and_integer_symbols_accepted(self):
        net = parse_network(
            '{"source": "X", "nodes": [{"id": "X", "alphabet": ["a", 1], "parents": []}]}'
        )
        assert net.by_id["X"].alphabet == ("a", "1")

    def test_bad_rowsum_parses_but_fails_validation(self):
        net = parse_network((FIXTURES / "bad_rowsum.json").read_text())
        assert any("9/10" in p for p in validate(net))

    def test_unknown_version_rejected(self):
        with pytest.raises(NetworkFormatError):
            parse_network('{"format_version": 9, "source": "X", "nodes": []}')

    def test_template_binding(self):
        text = (FIXTURES / "chain_template.json").read_text()
        net = parse_network(text, bindings={"d": Q(1, 8)})
        assert net.by_id["Y1"].rows[0][0] == Q(7, 8)

    def test_template_value_over_4300_digits_refused(self):
        text = (FIXTURES / "chain_template.json").read_text().replace('"d"', '"d * d"', 1)
        assert parse_network(text, bindings={"d": Q(1, 10**2000)})
        with pytest.raises(NetworkFormatError, match="'d \\* d' has a numerator"):
            parse_network(text, bindings={"d": Q(1, 10**2200)})

    def test_template_without_binding_rejected(self):
        text = (FIXTURES / "chain_template.json").read_text()
        with pytest.raises(NetworkFormatError):
            parse_network(text)


class TestPmfFiles:
    def test_pmf_list(self):
        pmfs = parse_pmf_file((FIXTURES / "pmfs_n4.json").read_text())
        assert len(pmfs) == 4 and pmfs[0]["0"] == Q(1, 2)

    def test_joint_list(self):
        joints = parse_pmf_file((FIXTURES / "joints_pair.json").read_text())
        assert len(joints) == 2
        assert joints[0][("0", "a")] == Q(1, 2)

    def test_invalid_pmf_reported(self):
        with pytest.raises(NetworkFormatError):
            parse_pmf_file('{"alphabet": ["a"], "pmfs": [["1/2"]]}')


class TestRange:
    def test_inclusive_endpoints(self):
        assert parse_range("0:1/2:1/8") == [Q(0), Q(1, 8), Q(1, 4), Q(3, 8), Q(1, 2)]

    def test_bad_step(self):
        with pytest.raises(NetworkFormatError):
            parse_range("0:1:0")

    def test_not_three_parts(self):
        with pytest.raises(NetworkFormatError):
            parse_range("0:1")

    def test_stop_between_values_and_empty(self):
        assert parse_range("0:1/2:1/3") == [Q(0), Q(1, 3)]
        with pytest.raises(NetworkFormatError, match="empty"):
            parse_range("1:1/2:1")

    def test_literal_over_4300_digits_refused(self):
        with pytest.raises(NetworkFormatError, match="more than 4300 digits"):
            parse_range("0:1:1e-5000")

    def test_count_over_4300_digits_abbreviated(self):
        with pytest.raises(CapacityError, match=r"enumerate <28566-bit integer> sweep"):
            parse_range("0:9e4299:1e-4299")

    def test_counted_against_the_limit(self):
        assert len(parse_range("0:1/2:1/8", 5)) == 5
        with pytest.raises(CapacityError) as err:
            parse_range("0:1/2:1/8", 4)
        assert (err.value.requested, err.value.limit) == (5, 4)
