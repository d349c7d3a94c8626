"""End-to-end tests for the command line interface."""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import riffmix
from riffmix import digit_transition_counts, parse_deck, probability_from_coefficients
from riffmix.cli import (
    CSV_TAG,
    POLY_HEADER,
    RESULT_HEADER,
    ResultRow,
    build_parser,
    main,
)
from riffmix.hardness import MatchingInstance, MinCutsInstance, RiffleInstance, parse_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(out):
    lines = out.splitlines()
    assert lines[0] == CSV_TAG
    return lines[1], lines[2:]


class TestResultRow:
    def test_csv_roundtrip_with_optional_fields(self):
        full = ResultRow(
            scenario="RedBlack1",
            shuffles=7,
            method="mc-histogram",
            value=0.125,
            k=1000,
            l=10**6,
            seed=3,
            err96=0.1,
            err999996=1.0,
        )
        sparse = ResultRow(scenario="bd:52", shuffles=4, method="exact", value=1.0)
        for row in (full, sparse):
            assert ResultRow.from_csv(row.to_csv()) == row

    def test_comma_in_field_is_rejected(self):
        row = ResultRow(scenario="custom-1,2", shuffles=1, method="exact", value=0.5)
        with pytest.raises(ValueError):
            row.to_csv()

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError):
            ResultRow.from_csv("a,b,c")


class TestBd:
    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "bd", "--n", "52", "--shuffles", "5..6")
        assert code == 0
        header, body = csv_body(out)
        assert header == RESULT_HEADER
        rows = [ResultRow.from_csv(line) for line in body]
        assert [r.shuffles for r in rows] == [5, 6]
        assert all(r.scenario == "bd:52" and r.method == "exact" for r in rows)
        assert rows[0].value == pytest.approx(0.9237329293962945, abs=1e-15)
        assert rows[1].value == pytest.approx(0.6135495965656284, abs=1e-15)

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "bd", "--n", "52", "--shuffles", "7", "--format", "text"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("scenario")
        assert "bd:52" in lines[1]
        assert "0.334" in lines[1]

    def test_large_deck(self, capsys):
        code, out, _ = run(capsys, "bd", "--n", "600", "--shuffles", "12")
        assert code == 0
        _, body = csv_body(out)
        assert [ResultRow.from_csv(line).shuffles for line in body] == [12]


def values(out):
    return [ResultRow.from_csv(line).value for line in csv_body(out)[1]]


class TestTvd:
    @pytest.mark.parametrize(
        "tvd, bd",
        [
            (("--scenario", "BayerDiaconis", "--shuffles", "0..12"),
             ("--n", "52", "--shuffles", "0..12")),
            (("--deck", ",".join(map(str, range(1, 11))), "--kind", "fixed-target",
              "--shuffles", "3"),
             ("--n", "10", "--shuffles", "3")),
        ],
    )
    def test_distinct_decks_give_the_bd_values(self, capsys, tvd, bd):
        code, out, _ = run(capsys, "tvd", "--method", "exact", *tvd)
        assert code == 0
        _, bd_out, _ = run(capsys, "bd", *bd)
        assert values(out) == values(bd_out)

    def test_unusable_cache_dir_exits_2_naming_it(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "tvd", "--scenario", "Blackjack1", "--method", "mc-hist",
            "--shuffles", "5", "--k", "2", "--hist-samples", "1000",
            "--cache-dir", str(blocker / "x"),
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(blocker / "x") in err

    def test_exact_two_cards(self, capsys):
        code, out, _ = run(
            capsys,
            "tvd",
            "--deck",
            "12",
            "--kind",
            "fixed-source",
            "--shuffles",
            "1",
        )
        assert code == 0
        _, body = csv_body(out)
        row = ResultRow.from_csv(body[0])
        assert row.value == 0.25
        assert row.method == "exact"
        assert row.scenario == "custom-1+2"

    def test_mc_exact_is_deterministic_and_thread_invariant(self, capsys):
        argv = (
            "tvd",
            "--deck",
            "1122",
            "--kind",
            "fixed-source",
            "--shuffles",
            "1",
            "--method",
            "mc-exact",
            "--k",
            "300",
            "--seed",
            "5",
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        row = ResultRow.from_csv(csv_body(out)[1][0])
        assert row.err96 == pytest.approx(math.sqrt(10) / math.sqrt(300))
        assert row.err999996 == pytest.approx(10 * math.sqrt(10) / math.sqrt(300))
        assert row.k == 300 and row.seed == 5

    SPARSE_FIT = (
        "tvd", "--deck", "1^6,2^6", "--kind", "fixed-source", "--method", "mc-hist",
        "--shuffles", "2..5", "--k", "30", "--hist-samples", "5000", "--seed", "9",
        "--extrapolate",
    )

    def test_histograms_too_sparse_to_fit_keep_their_estimates(self, capsys):
        # With the default degree-4 fit, most of these histograms have too
        # few well-populated degrees under the automatic window.
        code, out, err = run(capsys, *self.SPARSE_FIT)
        assert code == 0, err
        rows = [ResultRow.from_csv(line) for line in csv_body(out)[1]]
        assert [row.shuffles for row in rows] == [2, 3, 4, 5]
        assert all(0 <= row.value <= 1 for row in rows)
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("mc-hist: 29 distinct sampled arrangements")

    def test_terms_no_histogram_sample_informs_are_flagged(self, capsys):
        # At two packets only degrees 0 and 1 count, and 1e5 draws from
        # 8!^2 members hold none: every term reads 1, where the exact
        # distance is 0.433.  Stdout is unchanged; stderr says so.
        argv = (
            "tvd", "--deck", "1^8,2^8", "--kind", "fixed-source",
            "--method", "mc-hist", "--shuffles", "1..2", "--hist-samples",
            "100000", "--k", "5",
        )
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        rows = [ResultRow.from_csv(line) for line in csv_body(out)[1]]
        assert rows[0].value == 1.0 and rows[1].value < 1.0
        assert err == (
            "mc-hist: distinct sampled arrangements (of k=5 draws) with no "
            "estimated coefficient below degree a = 2^shuffles, whose term is "
            "1 by construction however small the true term: 5 at 1 shuffles, "
            "0 at 2 shuffles\n"
        )
        # Informed terms print no line.
        code, _, err = run(capsys, *argv[:8], "2", *argv[9:])
        assert code == 0 and err == ""

    def test_explicit_fit_window_too_short_exits_3(self, capsys):
        code, out, err = run(capsys, *self.SPARSE_FIT, "--window", "4..7")
        assert code == 3
        assert out == ""
        assert "window (4, 7) has 4 usable degrees" in err

    def test_negative_fit_degree_exits_2_with_no_rows(self, capsys):
        code, out, err = run(
            capsys,
            "tvd", "--deck", "1^3,2^3", "--kind", "fixed-source",
            "--method", "mc-hist", "--hist-samples", "1000", "--k", "2",
            "--shuffles", "1", "--extrapolate", "--fit-degree", "-1",
        )
        assert code == 2
        assert out == ""
        assert "fit degree must be at least 0" in err

    def test_window_without_range_exits_2(self, capsys):
        code, out, err = run(capsys, *self.SPARSE_FIT, "--window", "5")
        assert code == 2
        assert out == ""
        assert "--window expects lo..hi, got '5'" in err

    def test_normal_estimate_survives_many_shuffles(self, capsys):
        # a^n passes the float range at 20 riffles of 52 cards.
        code, out, err = run(
            capsys,
            "tvd", "--scenario", "Bridge1", "--method", "mc-normal",
            "--shuffles", "10..40", "--k", "5",
        )
        assert code == 0, err
        values = [ResultRow.from_csv(line).value for line in csv_body(out)[1]]
        assert len(values) == 31
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert 0 < values[-1] < 1e-9

    def test_named_scenario_spelled_loosely(self, capsys):
        code, out, _ = run(
            capsys,
            "tvd",
            "--scenario",
            "redblack1",
            "--shuffles",
            "1",
            "--method",
            "mc-hist",
            "--k",
            "10",
            "--hist-samples",
            "20000",
            "--seed",
            "2",
        )
        assert code == 0
        row = ResultRow.from_csv(csv_body(out)[1][0])
        assert row.scenario == "RedBlack1"
        assert 0.0 <= row.value <= 1.0

    def test_needs_scenario_or_deck(self, capsys):
        # A missing flag is a usage error.
        code, _, err = run(capsys, "tvd", "--shuffles", "1")
        assert code == 2
        assert "--scenario" in err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "tvd", "--scenario", "nope", "--shuffles", "1")
        assert code == 2
        assert "unknown scenario" in err


class TestPoly:
    def test_exact_csv_golden(self, capsys):
        code, out, _ = run(capsys, "poly", "--source", "1122", "--target", "1221")
        assert code == 0
        header, body = csv_body(out)
        assert header == POLY_HEADER
        got = [line.split(",") for line in body]
        assert [row[1] for row in got] == ["0", "2", "2", "0"]
        assert all(row[2] == "exact" for row in got)

    def test_exact_text_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "poly",
            "--source",
            "1122",
            "--target",
            "1221",
            "--format",
            "text",
        )
        assert code == 0
        assert "source: 1^2,2^2" in out
        assert "coefficients (degree 0..3): 0,2,2,0" in out

    def test_mc_estimates_sum_to_cardinality(self, capsys):
        code, out, _ = run(
            capsys,
            "poly",
            "--source",
            "1122",
            "--target",
            "1221",
            "--method",
            "mc",
            "--l",
            "20000",
            "--seed",
            "5",
        )
        assert code == 0
        _, body = csv_body(out)
        values = [float(line.split(",")[1]) for line in body]
        gauges = [line.split(",")[3] for line in body]
        assert sum(values) == pytest.approx(4.0, rel=1e-9)
        assert all(g for v, g in zip(values, gauges) if v > 0)

    def test_tvd_normal_reports_unproven_curves_on_stderr(self, capsys):
        code, out, err = run(
            capsys,
            "tvd", "--scenario", "Blackjack1", "--method", "mc-normal",
            "--shuffles", "3..6", "--k", "40", "--seed", "77",
        )
        assert code == 0, err
        values = [ResultRow.from_csv(line).value for line in csv_body(out)[1]]
        assert values == [0.9, 0.016881159317583376, 0.10757006312757536,
                          0.07403272046968834]
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("mc-normal: 40 distinct sampled arrangements")

    def test_normal_flags_unproven_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "poly",
            "--source",
            "1122",
            "--target",
            "2211",
            "--method",
            "normal",
        )
        assert code == 0
        _, body = csv_body(out)
        rows = [line.split(",") for line in body]
        assert all(row[2] == "normal" and row[3] == "unproven" for row in rows)

    def test_normal_on_deterministic_pair_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            "poly",
            "--source",
            "1234",
            "--target",
            "3142",
            "--method",
            "normal",
        )
        assert code == 3
        assert out == ""
        assert "deterministic" in err

    def test_signature_mismatch_exits_3(self, capsys):
        code, _, err = run(capsys, "poly", "--source", "112", "--target", "122")
        assert code == 3
        assert err

    def test_transition_cap_exits_3(self, capsys):
        code, _, err = run(
            capsys, "poly", "--source", "(1,2)^8", "--target", "(2,1)^8"
        )
        assert code == 3
        assert "cap" in err.lower()
        # Block decks take the DP, which no cap refuses.
        code, out, _ = run(
            capsys, "poly", "--source", "1^8,2^8", "--target", "2^8,1^8", "--cap", "1"
        )
        assert code == 0
        _, body = csv_body(out)
        coeffs = [int(line.split(",")[1]) for line in body]
        assert sum(coeffs) == math.factorial(8) ** 2
        d1, d2 = parse_deck("1^8,2^8"), parse_deck("2^8,1^8")
        walk = digit_transition_counts(d1, 2)
        assert probability_from_coefficients(coeffs, 2) == Fraction(walk[d2], 2**16)

    def test_unusable_cache_env_dir_exits_2_naming_it(
        self, capsys, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("RIFFMIX_CACHE_DIR", str(blocker / "x"))
        code, out, err = run(
            capsys, "poly", "--source", "1122", "--target", "1221",
            "--method", "mc", "--l", "1000",
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(blocker / "x") in err

    def test_cache_env_var_is_honored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RIFFMIX_CACHE_DIR", str(tmp_path))
        argv = (
            "poly",
            "--source",
            "1122",
            "--target",
            "1221",
            "--method",
            "mc",
            "--l",
            "15000",
            "--seed",
            "4",
        )
        _, out1, _ = run(capsys, *argv)
        files = list(tmp_path.glob("hist_*.txt"))
        assert len(files) == 1
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert list(tmp_path.glob("hist_*.txt")) == files


class TestHardness:
    def test_gen_lines_parse_and_repeat(self, capsys):
        argv = ("hardness", "gen", "--count", "5", "--seed", "9")
        code, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert code == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert len(lines) == 5
        for line in lines:
            assert isinstance(parse_instance(line), MatchingInstance)

    def test_reduce_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "hardness",
            "reduce",
            "--instance",
            "3dm m=1 triples=(1,1,1)",
            "--chain",
        )
        assert code == 0
        first, second = out.splitlines()
        assert isinstance(parse_instance(first), RiffleInstance)
        assert isinstance(parse_instance(second), MinCutsInstance)

    def test_reduce_bracket_encoding(self, capsys):
        code, out, _ = run(
            capsys,
            "hardness",
            "reduce",
            "--instance",
            "3dm m=1 triples=(1,1,1)",
            "--encoding",
            "brackets",
        )
        assert code == 0
        inst = parse_instance(out.strip())
        assert isinstance(inst, RiffleInstance)
        assert "[" in inst.deck.cards

    def test_reduce_riffle_line_to_mincuts(self, capsys):
        code, out, _ = run(
            capsys,
            "hardness",
            "reduce",
            "--instance",
            "riffle packets=1;2 deck=1,2",
        )
        assert code == 0
        assert isinstance(parse_instance(out.strip()), MinCutsInstance)

    def test_solve_mincuts_shorthand(self, capsys):
        code, out, _ = run(
            capsys, "hardness", "solve", "--mincuts", "1122", "1221", "1"
        )
        assert code == 0
        assert out.startswith("yes witness=")
        code, out, _ = run(
            capsys, "hardness", "solve", "--mincuts", "1122", "1221", "0"
        )
        assert code == 0
        assert out.strip() == "no"

    def test_solve_matching_line(self, capsys):
        code, out, _ = run(
            capsys,
            "hardness",
            "solve",
            "--instance",
            "3dm m=2 triples=(1,2,1);(2,1,2);(1,1,1)",
        )
        assert code == 0
        assert out.startswith("yes witness=")

    def test_solve_negative_universe_exits_2(self, capsys):
        code, out, err = run(
            capsys, "hardness", "solve", "--instance", "3dm m=-1 triples="
        )
        assert (code, out) == (2, "")
        assert "m must be nonnegative, got -1" in err

    def test_battery_agrees_and_exits_0(self, capsys):
        code, out, _ = run(
            capsys,
            "hardness",
            "battery",
            "--count",
            "8",
            "--seed",
            "3",
            "--m-max",
            "3",
            "--t-max",
            "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "battery count=8 disagreements=0"
        assert len(lines) == 9
        assert all(line.endswith("ok") for line in lines[:-1])


class TestHashSeed:
    """Labels hash as strings, so set and dict order of labels may change
    from process to process; printed results must not."""

    COMMANDS = [
        ("tvd", "--scenario", "Bridge1", "--method", "mc-normal",
         "--shuffles", "3..5", "--k", "5"),
        ("tvd", "--scenario", "Blackjack1", "--method", "mc-hist",
         "--shuffles", "4..5", "--k", "3", "--hist-samples", "2000",
         "--seed", "5"),
        ("hardness", "battery", "--count", "4"),
    ]

    @staticmethod
    def stdout_under(hash_seed, argv):
        env = {k: v for k, v in os.environ.items() if k != "RIFFMIX_CACHE_DIR"}
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(Path(riffmix.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "riffmix.cli", *argv],
            env=env,
            capture_output=True,
            check=True,
        )
        return proc.stdout

    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=["mc-normal", "mc-hist", "battery"]
    )
    def test_stdout_does_not_depend_on_hash_seed(self, argv):
        first = self.stdout_under("1", argv)
        assert first
        assert self.stdout_under("2", argv) == first


class TestExplore:
    def test_classes_lines(self, capsys):
        code, out, _ = run(capsys, "explore", "classes", "--n", "1..3")
        assert code == 0
        assert out.splitlines() == [
            "n=1 classes=1 sequences=2 formula-candidate=2",
            "n=2 classes=1 sequences=6 formula-candidate=5",
            "n=3 classes=1 sequences=20 formula-candidate=12",
        ]

    def test_modh_trims_trailing_zeros(self, capsys):
        code, out, _ = run(capsys, "explore", "modh", "--n", "2", "--h", "2")
        assert code == 0
        assert out.splitlines() == ["n=2 h=2 total=4", "descents=1,1,2"]

    def test_modh_single_class_shows_reference(self, capsys):
        code, out, _ = run(capsys, "explore", "modh", "--n", "4", "--h", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "descents=1,11,11,1"
        assert lines[2] == "unrestricted-reference=1,11,11,1"

    def test_modh_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "explore", "modh", "--n", "3", "--h", "2", "--cap", "5")
        assert code == 3
        assert "cap" in err


class TestExitCodes:
    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bd", "--n", "5", "--shuffles", "2..1")
        assert code == 2
        assert "empty range" in err

    def test_empty_shuffle_range_exits_2_after_the_scenario_resolves(self, capsys):
        code, out, err = run(
            capsys, "tvd", "--scenario", "Bridge1", "--shuffles", "1..0"
        )
        assert (code, out) == (2, "")
        assert "empty range '1..0'" in err
        # A bad deck is reported first, as a domain error.
        code, _, _ = run(
            capsys, "tvd", "--deck", "1,,2", "--kind", "fixed-source",
            "--shuffles", "1..0",
        )
        assert code == 3

    @pytest.mark.parametrize("text", ["3..", "..3", "x", "1..2..3"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("bd", "--n", "5", "--shuffles"), "--shuffles"),
            (("tvd", "--scenario", "Bridge1", "--shuffles"), "--shuffles"),
            (("explore", "classes", "--n"), "--n"),
        ],
    )
    def test_malformed_range_names_flag_and_form(self, capsys, argv, flag, text):
        code, out, err = run(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert f"{flag} expects N or lo..hi, got {text!r}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hardness", "gen", "--m-max", "0"), "--m-max must be at least 1, got 0"),
            (("hardness", "battery", "--t-max", "0"), "--t-max must be at least 1, got 0"),
            (("hardness", "solve", "--mincuts", "12", "21", "x"),
             "--mincuts expects an integer descent budget D, got 'x'"),
            (("hardness", "gen", "--seed", "-1"), "--seed must be a non-negative"),
            (("tvd", "--scenario", "Bridge1", "--shuffles", "3",
              "--method", "mc-normal", "--seed", "-1"),
             "--seed must be a non-negative"),
            (("poly", "--source", "1122", "--target", "1212", "--method", "mc",
              "--seed", "-1"),
             "--seed must be a non-negative"),
            (("hardness", "gen", "--count", "-1"), "--count must be at least 0, got -1"),
            (("hardness", "battery", "--count", "-1"),
             "--count must be at least 0, got -1"),
        ],
    )
    def test_bad_flag_values_exit_2_naming_the_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_required_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bd", "--shuffles", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ("--deck", "", "--kind", "fixed-source", "--shuffles", "1"),
            ("--deck", "1^2,2^2", "--shuffles", "1"),
        ],
    )
    def test_tvd_without_a_scenario_or_a_deck_and_kind_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "tvd", *argv)
        assert (code, out) == (2, "")
        assert "need either --scenario or both --deck and --kind" in err

    def test_bad_deck_expression_exits_3(self, capsys):
        code, _, err = run(
            capsys, "poly", "--source", "1,,2", "--target", "1,2"
        )
        assert code == 3
        assert err


def exits(capsys, parse, argv):
    """The stdout, stderr and exit code of `parse(argv)`, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


class TestParser:
    """`main` fills in the arguments of the invoked subcommand alone; what
    it prints and how it exits are those of the whole parser."""

    COMMANDS = [
        [],
        ["bd"],
        ["tvd"],
        ["poly"],
        ["hardness"],
        ["hardness", "gen"],
        ["hardness", "reduce"],
        ["hardness", "solve"],
        ["hardness", "battery"],
        ["explore"],
        ["explore", "classes"],
        ["explore", "modh"],
    ]

    @pytest.mark.parametrize("tail", [["--help"], ["--no-such-flag"]])
    @pytest.mark.parametrize(
        "command", COMMANDS, ids=[" ".join(c) or "top" for c in COMMANDS]
    )
    def test_help_and_flag_errors_are_the_whole_parsers(self, capsys, command, tail):
        argv = command + tail
        want = exits(capsys, build_parser().parse_args, argv)
        assert want[2] == (0 if tail == ["--help"] else 2)
        assert exits(capsys, main, argv) == want

    @pytest.mark.parametrize(
        "argv, code, text",
        [
            ([], 2, "the following arguments are required: command"),
            (["frobnicate"], 2, "invalid choice: 'frobnicate'"),
            (["frobnicate", "--help"], 2, "invalid choice: 'frobnicate'"),
            (["-h", "tvd"], 0, "{bd,tvd,poly,hardness,explore}"),
        ],
    )
    def test_no_subcommand_gets_the_whole_parser(self, capsys, argv, code, text):
        want = exits(capsys, build_parser().parse_args, argv)
        assert want[2] == code
        assert text in want[0] + want[1]
        assert exits(capsys, main, argv) == want

    def test_only_the_invoked_subcommand_gets_its_arguments(self):
        def filled(argv):
            (sub,) = [
                a
                for a in build_parser(argv)._actions
                if isinstance(a, argparse._SubParsersAction)
            ]
            assert list(sub.choices) == ["bd", "tvd", "poly", "hardness", "explore"]
            # A subcommand left empty holds only its -h.
            return [name for name, p in sub.choices.items() if len(p._actions) > 1]

        assert filled(["tvd", "--shuffles", "1"]) == ["tvd"]
        assert filled(["explore", "modh"]) == ["explore"]
        assert len(filled(None)) == len(filled(["-h"])) == len(filled(["x"])) == 5
