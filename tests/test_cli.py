"""End-to-end tests for the command line interface."""

from __future__ import annotations

import math

import pytest

from riffmix import parse_deck
from riffmix.cli import CSV_TAG, POLY_HEADER, RESULT_HEADER, ResultRow, main
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


class TestTvd:
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
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv, "--threads", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        row = ResultRow.from_csv(csv_body(out1)[1][0])
        assert row.err96 == pytest.approx(math.sqrt(10) / math.sqrt(300))
        assert row.err999996 == pytest.approx(10 * math.sqrt(10) / math.sqrt(300))
        assert row.k == 300 and row.seed == 5

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
        code, _, err = run(capsys, "tvd", "--shuffles", "1")
        assert code == 3
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

    def test_mc_is_deterministic(self, capsys):
        argv = (
            "poly",
            "--source",
            "112233",
            "--target",
            "321321",
            "--method",
            "mc",
            "--l",
            "30000",
            "--seed",
            "8",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv, "--threads", "3")
        assert out1 == out2

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
            capsys, "poly", "--source", "1^8,2^8", "--target", "2^8,1^8"
        )
        assert code == 3
        assert "cap" in err.lower()

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
        assert "[" in inst.deck.tokens()

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

    def test_bad_deck_expression_exits_3(self, capsys):
        code, _, err = run(
            capsys, "poly", "--source", "1,,2", "--target", "1,2"
        )
        assert code == 3
        assert err
