import json
import os

import numpy as np
import pytest

from kelly_memory import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKelly:
    def test_golden_json(self, capsys):
        code, out, _ = run(
            capsys, "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2"
        )
        assert code == 0
        assert out == (
            '{"kstar": 0.166666666667, "kn": 0.4, '
            '"kinf": 0.166666666667, "kvec": [0.5, 0.3]}\n'
        )

    def test_golden_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--format", "csv",
        )
        assert code == 0
        assert out == (
            "name,value\n"
            "kstar,0.166667\n"
            "kn,0.4\n"
            "kinf,0.166667\n"
            "kvec_0,0.5\n"
            "kvec_1,0.3\n"
        )

    def test_iid_all_equal(self, capsys):
        code, out, _ = run(
            capsys, "kelly", "--omega", "0.6,0", "--history", "+1", "--n", "5"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["kvec"] == [0.2] * 5
        assert payload["kstar"] == payload["kn"] == payload["kinf"] == 0.2

    def test_history_letters(self, capsys):
        code, out, _ = run(
            capsys, "kelly", "--omega", "0.55,0.20", "--history", "H", "--n", "2"
        )
        assert code == 0
        assert json.loads(out)["kn"] == 0.4

    def test_hyperdiamond_violation_exit_2(self, capsys):
        code, out, err = run(
            capsys, "kelly", "--omega", "0.2,0.4", "--history", "+1", "--n", "2"
        )
        assert code == 2
        assert out == ""
        assert "hyperdiamond" in err and "0.2" in err

    def test_bad_history_token(self, capsys):
        code, _, err = run(
            capsys, "kelly", "--omega", "0.55,0.20", "--history", "X", "--n", "2"
        )
        assert code == 2
        assert "history" in err


class TestElg:
    def test_golden_json(self, capsys):
        code, out, _ = run(
            capsys,
            "elg", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--k", "0.4",
        )
        assert code == 0
        assert out == '{"k": [0.4], "elg": 0.0822828785051, "unit": "nats"}\n'

    def test_vector_policy(self, capsys):
        code, out, _ = run(
            capsys,
            "elg", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--k", "0.5,0.3",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["elg"] == pytest.approx(0.088, abs=5e-4)

    def test_bits_conversion(self, capsys):
        _, nats_out, _ = run(
            capsys,
            "elg", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--k", "0.4",
        )
        _, bits_out, _ = run(
            capsys,
            "elg", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--k", "0.4", "--bits",
        )
        nats = json.loads(nats_out)
        bits = json.loads(bits_out)
        assert bits["unit"] == "bits"
        assert bits["elg"] == pytest.approx(nats["elg"] / 0.6931471805599453, rel=1e-9)

    def test_wrong_policy_length(self, capsys):
        code, _, err = run(
            capsys,
            "elg", "--omega", "0.55,0.20", "--history", "+1", "--n", "3",
            "--k", "0.5,0.3",
        )
        assert code == 2
        assert "--k" in err

    def test_out_of_range_fraction(self, capsys):
        code, _, _ = run(
            capsys,
            "elg", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--k", "1.5",
        )
        assert code == 2

    def test_leading_negative_fraction_equals_form(self, capsys):
        # A list starting with '-' must be passed as --k=...; scenario (b)
        # vector policy.
        code, out, _ = run(
            capsys,
            "elg", "--omega", "0.55,-0.20", "--history", "+1", "--n", "2",
            "--k=-0.3,0.22",
        )
        assert code == 0
        assert json.loads(out)["k"] == [-0.3, 0.22]


class TestScenario:
    def test_golden_csv_head(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "--omega", "0.55,0.20", "--history", "+1", "--n", "3"
        )
        assert code == 0
        assert out == (
            "n,elg_kstar,elg_kn,elg_kvec,kstar,kn\n"
            "1,0.0700326,0.130812,0.130812,0.166667,0.5\n"
            "2,0.053209,0.0822829,0.0882563,0.166667,0.4\n"
            "3,0.0431148,0.0589685,0.0669706,0.166667,0.34\n"
        )

    def test_default_horizon_30(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "--omega", "0.55,0.20", "--history", "+1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 31

    def test_json_rows_dominance(self, capsys):
        code, out, _ = run(
            capsys,
            "scenario", "--omega", "0.35,0.33", "--history", "+1", "--n", "30",
            "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert code == 0
        assert len(rows) == 30
        for row in rows:
            assert row["elg_kstar"] <= row["elg_kn"] + 1e-9
            assert row["elg_kn"] <= row["elg_kvec"] + 1e-9


class TestSimulate:
    def test_deterministic_given_seed(self, capsys):
        argv = [
            "simulate", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--paths", "20000", "--seed", "7",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert [p["name"] for p in payload["policies"]] == ["kstar", "kn", "kvec"]
        for p in payload["policies"]:
            assert abs(p["mean_log_growth"] - p["analytic_elg"]) < 5 * p["std_error"]

    def test_custom_policy_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--paths", "5000", "--seed", "3", "--k", "0.4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "policy,mean_log_growth,std_error,analytic_elg,q05,q50,q95"
        assert len(lines) == 2
        assert lines[1].startswith("custom,")

    def test_env_seed_fallback(self, capsys, monkeypatch):
        argv = [
            "simulate", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--paths", "5000",
        ]
        monkeypatch.setenv(cli.SEED_ENV_VAR, "42")
        _, out_env, _ = run(capsys, *argv)
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        _, out_flag, _ = run(capsys, *argv, "--seed", "42")
        _, out_default, _ = run(capsys, *argv)
        assert out_env == out_flag
        assert json.loads(out_default)["seed"] == 0

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        code, _, err = run(
            capsys,
            "simulate", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--paths", "10",
        )
        assert code == 2
        assert cli.SEED_ENV_VAR in err


class TestEstimate:
    def test_fit_json_schema(self, capsys, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("".join("+1\n" if i % 3 else "-1\n" for i in range(200)))
        code, out, _ = run(capsys, "estimate", str(f), "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"omega", "rss", "constrained", "projected"}
        assert len(payload["omega"]) == 2
        assert payload["constrained"] is False

    def test_constrained_flag(self, capsys, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("".join("+1\n" if i % 2 else "-1\n" for i in range(200)))
        code, out, _ = run(capsys, "estimate", str(f), "--m", "1", "--constrained")
        payload = json.loads(out)
        assert code == 0
        assert payload["constrained"] is True
        assert payload["projected"] is True
        assert abs(payload["omega"][0] - 0.5) + abs(payload["omega"][1]) <= 0.5

    def test_csv_column_input(self, capsys, tmp_path):
        f = tmp_path / "o.csv"
        rows = "".join(f"{i},{1 if i % 3 else 0}\n" for i in range(100))
        f.write_text("day,move\n" + rows)
        code, out, _ = run(
            capsys, "estimate", str(f), "--m", "1", "--column", "move"
        )
        assert code == 0
        assert json.loads(out)["rss"] > 0

    def test_singular_data_exit_3(self, capsys, tmp_path):
        f = tmp_path / "o.txt"
        f.write_text("+1\n" * 50)
        code, _, err = run(capsys, "estimate", str(f), "--m", "1")
        assert code == 3
        assert "singular" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "estimate", str(tmp_path / "nope.txt"), "--m", "1")
        assert code == 2


class TestIngest:
    def test_golden_lines(self, capsys, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,price\na,100\nb,101\nc,99\n")
        code, out, _ = run(capsys, "ingest", str(f))
        assert code == 0
        assert out == "+1\n-1\n"

    def test_tie_down(self, capsys, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,price\na,100\nb,100\nc,101\n")
        code, out, _ = run(capsys, "ingest", str(f), "--tie", "down")
        assert code == 0
        assert out == "-1\n+1\n"

    def test_missing_price_column(self, capsys, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,close\na,100\n")
        code, _, err = run(capsys, "ingest", str(f))
        assert code == 2
        assert "price" in err

    def test_roundtrip_into_estimate(self, capsys, tmp_path):
        prices = [100.0]
        value = 100.0
        for i in range(300):
            value *= 1.01 if (i * 7 % 3) else 0.99
            prices.append(value)
        f = tmp_path / "p.csv"
        f.write_text("price\n" + "".join(f"{p}\n" for p in prices))
        moves = tmp_path / "moves.txt"
        code, _, _ = run(capsys, "ingest", str(f), "--out", str(moves))
        assert code == 0
        code, out, _ = run(capsys, "estimate", str(moves), "--m", "1")
        assert code == 0
        assert len(json.loads(out)["omega"]) == 2


class TestOutputFiles:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["kn"] == 0.4
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".kelly-tmp")]

    def test_invalid_input_never_creates_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, _, _ = run(
            capsys,
            "kelly", "--omega", "0.2,0.4", "--history", "+1", "--n", "2",
            "--out", str(target),
        )
        assert code == 2
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--precision", "3",
        )
        assert code == 0
        assert json.loads(out)["kstar"] == 0.167


class TestRejectedInput:
    """Invalid input ends with exit 2 (or 3) and one line on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("elg", "--omega", "nan,0.1", "--history", "+1", "--n", "2", "--k", "0.1"),
            ("scenario", "--omega", "nan,0.1", "--history", "+1", "--n", "3"),
            ("kelly", "--omega", "0.55,inf", "--history", "+1", "--n", "2"),
        ],
    )
    def test_non_finite_omega(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "omega" in err

    @pytest.mark.parametrize("price", ["inf", "nan"])
    def test_non_finite_price(self, capsys, tmp_path, price):
        prices = tmp_path / "prices.csv"
        prices.write_text(f"price\n1\n2\n{price}\n3\n")
        code, out, err = run(capsys, "ingest", str(prices))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_precision_must_be_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([
                "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
                "--precision", value,
            ])
        captured = capsys.readouterr()
        assert exc_info.value.code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--precision" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_result_is_not_printed(self, capsys, fmt):
        # Final account values overflow to inf over 20000 winning bets; numpy
        # warns about that before the renderer refuses the result.
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(
                capsys,
                "simulate", "--omega", "0.9,0", "--history", "+1", "--n", "20000",
                "--k", "0.99", "--paths", "10", "--format", fmt,
            )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err
