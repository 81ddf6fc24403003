import contextlib
import errno
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bruteforce
from kelly_memory import cli, estimate, model, policy, simulate
from kelly_memory.errors import (
    HyperdiamondViolation,
    InsufficientData,
    KellyMemoryError,
    NonConvergence,
    NumericalError,
    SingularDesign,
)
from strategies import outcome_files, price_files, valid_games


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

    @settings(deadline=None, max_examples=80)
    @given(game=valid_games(), n=st.integers(1, 1000))
    @example(game=(model.MemoryParams((0.54, 0.07, 0.01, -0.01)), model.History((1, -1, -1))), n=116)
    @example(game=(model.MemoryParams((0.55, -0.03)), model.History((-1,))), n=82)
    def test_last_row_prints_what_kelly_and_simulate_print(self, game, n):
        # Row n of the table is the horizon-n game, so its K_n and ELG texts
        # are those of kelly and of simulate's analytic column. The examples
        # once printed kn ...5936 against ...5937, and elg_kstar
        # 0.00452808439399 against 0.004528084394.
        params, history = game
        assume(params.m in (1, 2, 3, 6))
        flags = [
            "--omega=" + ",".join(map(repr, params.omega)),
            "--history=" + ",".join("+1" if v == 1 else "-1" for v in history.values),
            f"--n={n}",
            "--format=json",
        ]

        def printed(*argv):
            code, out, err = run_on_file([*argv, *flags], "")
            assert (code, err) == (0, "")
            return json.loads(out, parse_float=str)  # the texts as printed

        row = printed("scenario")["rows"][-1]
        assert printed("kelly")["kn"] == row["kn"]
        if n <= 200:
            policies = printed("simulate", "--paths=1", "--seed=0")["policies"]
            analytic = [policy["analytic_elg"] for policy in policies]
            assert analytic == [row["elg_kstar"], row["elg_kn"], row["elg_kvec"]]


GAME = ("--omega", "0.55,0.20", "--history", "+1")
GAME3 = ("--omega", "0.5,0.15,-0.1,0.05", "--history", "+1,-1,+1")
OUTCOME_FILES = {
    "mod3": "".join("+1\n" if i % 3 else "-1\n" for i in range(200)),
    "alt": "".join("+1\n" if i % 2 else "-1\n" for i in range(200)),
    "sq7": "".join("+1\n" if i * i % 7 < 4 else "-1\n" for i in range(300)),
}


class TestGoldenShapes:
    """Byte-exact output of every command's JSON and CSV shape."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ("elg", *GAME, "--n", "2", "--k", "0.4", "--format", "csv"),
                "name,value\nk_0,0.4\nelg,0.0822829\n",
            ),
            (
                ("elg", *GAME, "--n", "2", "--k", "0.4", "--format", "csv", "--bits"),
                "name,value\nk_0,0.4\nelg,0.118709\n",
            ),
            (
                ("elg", *GAME3, "--n", "3", "--k", "0.1,-0.2,0.3", "--format", "csv",
                 "--bits"),
                "name,value\nk_0,0.1\nk_1,-0.2\nk_2,0.3\nelg,-0.00259468\n",
            ),
            (
                ("scenario", *GAME, "--n", "3", "--format", "json", "--bits"),
                '{"rows": ['
                '{"n": 1, "elg_kstar": 0.101035714544, "elg_kn": 0.188721875541, '
                '"elg_kvec": 0.188721875541, "kstar": 0.166666666667, "kn": 0.5}, '
                '{"n": 2, "elg_kstar": 0.0767643731854, "elg_kn": 0.118709100769, '
                '"elg_kvec": 0.127326910083, "kstar": 0.166666666667, "kn": 0.4}, '
                '{"n": 3, "elg_kstar": 0.0622015683703, "elg_kn": 0.0850736272203, '
                '"elg_kvec": 0.0966180905534, "kstar": 0.166666666667, "kn": 0.34}]}\n',
            ),
            (
                ("scenario", *GAME3, "--n", "2", "--format", "json"),
                '{"rows": ['
                '{"n": 1, "elg_kstar": 0.0, "elg_kn": 0.192744757022, '
                '"elg_kvec": 0.192744757022, "kstar": 0.0, "kn": 0.6}, '
                '{"n": 2, "elg_kstar": 0.0, "elg_kn": 0.0290830539958, '
                '"elg_kvec": 0.0999810686647, "kstar": 0.0, "kn": 0.24}]}\n',
            ),
            (
                ("simulate", *GAME, "--n", "2", "--paths", "5000", "--seed", "3",
                 "--format", "csv"),
                "policy,mean_log_growth,std_error,analytic_elg,q05,q50,q95\n"
                "kstar,0.055598,0.00177272,0.053209,0.694444,1.36111,1.36111\n"
                "kn,0.0882987,0.00446402,0.0822829,0.36,1.96,1.96\n"
                "kvec,0.0938984,0.00451799,0.0882563,0.35,1.95,1.95\n",
            ),
            (
                ("simulate", *GAME3, "--n", "3", "--paths", "5000", "--seed", "3",
                 "--format", "csv", "--k", "0.1,-0.2,0.3"),
                "policy,mean_log_growth,std_error,analytic_elg,q05,q50,q95\n"
                "custom,-0.00141486,0.00148362,-0.0017985,0.616,0.924,1.716\n",
            ),
            (
                ("simulate", *GAME, "--n", "2", "--paths", "5000", "--seed", "3",
                 "--bits", "--k", "0.4"),
                '{"paths": 5000, "seed": 3, "policies": [{"name": "custom", '
                '"mean_log_growth": 0.127388086961, "std_error": 0.00644021823555, '
                '"analytic_elg": 0.118709100769, "q05": 0.36, "q50": 1.96, '
                '"q95": 1.96}]}\n',
            ),
            (
                ("estimate", "{mod3}", "--m", "1"),
                '{"omega": [0.75, -0.25], "rss": 33.0, "constrained": false, '
                '"projected": false}\n',
            ),
            (
                ("estimate", "{mod3}", "--m", "1", "--format", "csv"),
                "name,value\nomega_0,0.75\nomega_1,-0.25\nrss,33\n"
                "constrained,false\nprojected,false\n",
            ),
            (
                ("estimate", "{alt}", "--m", "1", "--constrained"),
                '{"omega": [0.5, -0.499999998998], "rss": 1.99796811352e-16, '
                '"constrained": true, "projected": true}\n',
            ),
            (
                ("estimate", "{alt}", "--m", "1", "--constrained", "--format", "csv"),
                "name,value\nomega_0,0.5\nomega_1,-0.5\nrss,1.99797e-16\n"
                "constrained,true\nprojected,true\n",
            ),
            (
                ("estimate", "{sq7}", "--m", "3", "--format", "csv"),
                "name,value\nomega_0,1.24706\nomega_1,-0.5\nomega_2,-0.5\n"
                "omega_3,-0.247059\nrss,21.2471\nconstrained,false\nprojected,false\n",
            ),
            (
                ("kelly", *GAME3, "--n", "4", "--precision", "4"),
                '{"kstar": 0.0, "kn": 0.1228, "kinf": 0.0, '
                '"kvec": [0.6, -0.12, -0.056, 0.0672]}\n',
            ),
            (
                ("kelly", *GAME3, "--n", "4", "--precision", "4", "--format", "csv"),
                "name,value\nkstar,0\nkn,0.1228\nkinf,0\n"
                "kvec_0,0.6\nkvec_1,-0.12\nkvec_2,-0.056\nkvec_3,0.0672\n",
            ),
            (
                ("elg", *GAME, "--n", "2", "--k", "0.5,0.3", "--precision", "4"),
                '{"k": [0.5, 0.3], "elg": 0.08826, "unit": "nats"}\n',
            ),
            (
                ("scenario", *GAME, "--n", "2", "--precision", "4"),
                "n,elg_kstar,elg_kn,elg_kvec,kstar,kn\n"
                "1,0.07003,0.1308,0.1308,0.1667,0.5\n"
                "2,0.05321,0.08228,0.08826,0.1667,0.4\n",
            ),
            (
                ("simulate", *GAME, "--n", "2", "--paths", "5000", "--seed", "3",
                 "--precision", "4"),
                '{"paths": 5000, "seed": 3, "policies": ['
                '{"name": "kstar", "mean_log_growth": 0.0556, "std_error": 0.001773, '
                '"analytic_elg": 0.05321, "q05": 0.6944, "q50": 1.361, "q95": 1.361}, '
                '{"name": "kn", "mean_log_growth": 0.0883, "std_error": 0.004464, '
                '"analytic_elg": 0.08228, "q05": 0.36, "q50": 1.96, "q95": 1.96}, '
                '{"name": "kvec", "mean_log_growth": 0.0939, "std_error": 0.004518, '
                '"analytic_elg": 0.08826, "q05": 0.35, "q50": 1.95, "q95": 1.95}]}\n',
            ),
            (
                ("estimate", "{sq7}", "--m", "3", "--precision", "4"),
                '{"omega": [1.247, -0.5, -0.5, -0.2471], "rss": 21.25, '
                '"constrained": false, "projected": false}\n',
            ),
        ],
    )
    def test_golden(self, capsys, tmp_path, argv, expected):
        files = {}
        for name, text in OUTCOME_FILES.items():
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text)
        code, out, err = run(capsys, *(a.format(**files) for a in argv))
        assert (code, err) == (0, "")
        assert out == expected


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

    def test_readme_golden(self, capsys):
        # The README's simulate command, byte for byte: pins the block
        # sampler, the reduction and the renderer together.
        code, out, _ = run(
            capsys,
            "simulate", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--paths", "1000000", "--seed", "7",
        )
        assert code == 0
        assert out == (
            '{"paths": 1000000, "seed": 7, "policies": ['
            '{"name": "kstar", "mean_log_growth": 0.0533375412353, '
            '"std_error": 0.00012637553884, "analytic_elg": 0.0532090088409, '
            '"q05": 0.694444444444, "q50": 1.36111111111, "q95": 1.36111111111}, '
            '{"name": "kn", "mean_log_growth": 0.0826065462877, '
            '"std_error": 0.000318236430855, "analytic_elg": 0.0822828785051, '
            '"q05": 0.36, "q50": 1.96, "q95": 1.96}, '
            '{"name": "kvec", "mean_log_growth": 0.0886248840944, '
            '"std_error": 0.00032205336755, "analytic_elg": 0.0882562887332, '
            '"q05": 0.35, "q50": 1.95, "q95": 1.95}]}\n'
        )

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

    @pytest.mark.parametrize("flag", [("--format", "json"), ("--precision", "3")])
    def test_output_flags_rejected(self, capsys, tmp_path, flag):
        # ingest always prints +1/-1 lines, so it takes no output-format flags.
        f = tmp_path / "p.csv"
        f.write_text("price\n100\n101\n")
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["ingest", str(f), *flag])
        captured = capsys.readouterr()
        assert exc_info.value.code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and flag[0] in captured.err

    def test_missing_price_column(self, capsys, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,close\na,100\n")
        code, _, err = run(capsys, "ingest", str(f))
        assert code == 2
        assert "price" in err

    @settings(deadline=None, max_examples=100)
    @given(moves=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=200))
    @example(moves=[1])
    @example(moves=[-1])
    def test_lines_are_the_sign_table(self, moves):
        # Prices 2**level move by exact doublings, so ingest gives back
        # ``moves``, on stdout and through --out alike.
        levels = np.concatenate([[0], np.cumsum(moves)]).tolist()
        text = "price\n" + "".join(f"{2.0 ** k!r}\n" for k in levels)
        expected = np.where(np.array(moves) > 0, b"+1\n", b"-1\n").tobytes()
        code, out, err = run_on_file(["ingest", "{data}"], text)
        assert (code, err) == (0, "") and out.encode() == expected
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "moves.txt"
            assert run_on_file(["ingest", "{data}", "--out", str(target)], text) == (0, "", "")
            assert target.read_bytes() == expected

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

    def test_out_naming_a_directory(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "kept.txt").write_text("kept")
        code, out, err = run(
            capsys,
            "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept"

    @pytest.mark.parametrize("name,code", [("missing/x.json", errno.ENOENT), ("taken", errno.EISDIR)])
    def test_a_failed_write_names_the_given_path(self, capsys, tmp_path, monkeypatch, name, code):
        # Not the random name of the temp file it writes first.
        monkeypatch.chdir(tmp_path)
        Path("moves.txt").write_text("+1\n-1\n+1\n+1\n-1\n")
        Path("taken").mkdir()
        result = run(capsys, "estimate", "moves.txt", "--m", "1", "--out", name)
        assert result == (2, "", f"error: [Errno {code}] {os.strerror(code)}: {name!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["moves.txt", "taken"]
        assert list(Path("taken").iterdir()) == []

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--precision", "3",
        )
        assert code == 0
        assert json.loads(out)["kstar"] == 0.167

    def test_precision_of_one_digit(self, capsys):
        code, out, _ = run(
            capsys,
            "kelly", "--omega", "0.55,0.20", "--history", "+1", "--n", "2",
            "--precision", "1",
        )
        assert code == 0
        assert out == '{"kstar": 0.2, "kn": 0.4, "kinf": 0.2, "kvec": [0.5, 0.3]}\n'


def render_outcome(render, record, fmt, precision):
    try:
        return render(record, fmt, precision)
    except NumericalError:
        return NumericalError


FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 0.5, 1 / 3, -2.5e-7, 123456.5, sys.float_info.max)),
    st.floats(allow_nan=False, allow_infinity=False),
)
NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


def read_only_array(values):
    """A float64 array that cannot be written, as a policy's fractions are."""
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


@st.composite
def records(draw):
    """A record as the commands build them: scalars, float sequences (lists,
    tuples or read-only arrays) with repeated values (both signed zeros among
    them, now and then a non-finite one), empty sequences, and sometimes a
    table: a dict of equal-length columns, as lists, tuples or numpy arrays."""
    pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
    seq = draw(st.lists(st.sampled_from(pool), max_size=40))
    if seq and draw(st.integers(0, 4)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            seq[draw(st.integers(0, len(seq) - 1))] = draw(NON_FINITE)
    record = {
        "x": draw(FLOATS),
        "count": draw(st.integers(-(2**63), 2**63)),
        "seq": draw(st.sampled_from((tuple, list, read_only_array)))(seq),
        "ok": draw(st.booleans()),
        "unit": "nats",
        "empty": draw(st.sampled_from(((), [], read_only_array([])))),
    }
    if draw(st.booleans()):
        rows = draw(st.integers(1, 6))
        column = draw(st.sampled_from((list, tuple, np.array)))
        record["rows"] = {
            "n": column(range(rows)),
            "name": ["k"] * rows,
            "v": column(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))),
            "ok": [draw(st.booleans()) for _ in range(rows)],
        }
    keys = draw(st.permutations(list(record)))
    return {key: record[key] for key in keys}


class TestRender:
    @settings(max_examples=200)
    @given(
        record=records(),
        fmt=st.sampled_from(("json", "csv")),
        precision=st.sampled_from((None, 1, 3, 6, 12, 17, 30)),
    )
    def test_equal_to_per_value_renderer(self, record, fmt, precision):
        assert render_outcome(cli.render, record, fmt, precision) == render_outcome(
            bruteforce.render, record, fmt, precision
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("precision", [None, 1, 4, 17])
    def test_repeated_values_and_signed_zeros(self, fmt, precision):
        record = {
            "kvec": (0.1, 1 / 3, 0.1, -0.0, 0.0, 1 / 3, -0.0, 0.1),
            "n": 123456789,
            "k": [],
            "seed": 2**64 - 1,
        }
        text = cli.render(record, fmt, precision)
        assert text == bruteforce.render(record, fmt, precision)
        assert "-0" in text

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sequence_value_raises(self, fmt, value):
        with pytest.raises(NumericalError):
            cli.render({"k": [0.5, value, 0.5]}, fmt, None)


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

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--omega", "0.55,x", "--history", "+1"),
             "--omega expects a comma-separated list of numbers"),
            (("--omega", "0.55,0.2", "--history", ","), "--history needs at least one token"),
        ],
        ids=["omega-not-a-number", "history-empty"],
    )
    def test_unreadable_game_flag(self, capsys, flags, message):
        code, out, err = run(capsys, "kelly", "--n", "2", *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize(
        "command", [("kelly",), ("elg", "--k", "0.1"), ("scenario",), ("simulate",)]
    )
    def test_non_positive_horizon(self, capsys, command, n):
        # scenario used to name its own n_max check instead.
        code, out, err = run(
            capsys, command[0], "--omega", "0.55,0.2", "--history", "+1", f"--n={n}",
            *command[1:],
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"horizon must be >= 1, got {n}" in err

    @pytest.mark.parametrize(
        "argv", [("kelly", "--n", str(10**400)), ("simulate", "--n", "3", "--paths", str(10**400))],
        ids=["kelly-n", "simulate-paths"],
    )
    def test_count_too_large_for_a_float(self, capsys, argv):
        # It used to end in an OverflowError traceback.
        code, out, err = run(capsys, *argv, "--omega", "0.55,0.2", "--history", "+1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "GiB, over the 2 GiB budget" in err

    @pytest.mark.parametrize("price", ["inf", "nan"])
    def test_non_finite_price(self, capsys, tmp_path, price):
        prices = tmp_path / "prices.csv"
        prices.write_text(f"price\n1\n2\n{price}\n3\n")
        code, out, err = run(capsys, "ingest", str(prices))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize(
        "argv,text",
        [
            (("ingest",), "date,price\n1,100\n2\n3,101\n"),
            (("estimate", "--m", "1", "--column", "move"), "day,move\n1,1\n2\n3,-1\n"),
        ],
    )
    def test_short_csv_row(self, capsys, tmp_path, argv, text):
        f = tmp_path / "rows.csv"
        f.write_text(text)
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"{f}:3:" in err

    # The bad byte past the first buffered chunk, in a cell that is not read.
    LATE_BAD_BYTE = b"date,price,note\n" + b"1,100,x\n" * 20_000 + b"2,101,\xff\n"

    @pytest.mark.parametrize(
        "argv,data",
        [
            (("ingest",), b"price\n100\n\xff\xfe\n101\n"),
            (("ingest",), LATE_BAD_BYTE),
            (("estimate", "--m", "1", "--column", "price"), LATE_BAD_BYTE),
            (("estimate", "--m", "1"), b"1\n-1\n\xff\n1\n"),
        ],
        ids=["prices", "prices-late", "column-late", "lines"],
    )
    def test_undecodable_file(self, capsys, tmp_path, argv, data):
        # The codec fails on a buffered chunk, so no line number is given.
        f = tmp_path / "f.csv"
        f.write_bytes(data)
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: {f}: cannot decode the file as text (")

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
        # Final account values overflow to inf over 20000 winning bets.
        code, out, err = run(
            capsys,
            "simulate", "--omega", "0.9,0", "--history", "+1", "--n", "20000",
            "--k", "0.99", "--paths", "10", "--format", fmt,
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    def test_overflow_prints_one_line_and_no_warning(self):
        # In a fresh process, so that a numpy RuntimeWarning would reach the
        # real stderr instead of pytest's warning capture.
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [
                sys.executable, "-m", "kelly_memory",
                "simulate", "--omega", "0.9,0", "--history", "+1", "--n", "20000",
                "--k", "0.99", "--paths", "10",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: ") and "overflows" in proc.stderr

    @pytest.mark.parametrize(
        "size",
        [("--n", "100000000000", "--paths", "10"), ("--n", "2", "--paths", "10000000000")],
    )
    def test_oversized_simulation_rejected(self, capsys, size):
        code, out, err = run(
            capsys, "simulate", "--omega", "0.55,0.2", "--history", "+1", *size
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "budget" in err

    @pytest.mark.parametrize("command", [("kelly",), ("elg", "--k", "0.1"), ("scenario",)])
    def test_oversized_horizon_rejected(self, capsys, command):
        code, out, err = run(
            capsys, *command, "--omega", "0.55,0.2", "--history", "+1",
            "--n", "100000000000",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "budget" in err

    def test_simulate_depth_above_table_cap(self, capsys):
        omega = ",".join(["0.5"] + ["0.01"] * 21)
        code, out, err = run(
            capsys, "simulate", "--omega", omega, "--history", ",".join(["+1"] * 21),
            "--n", "2", "--paths", "10",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "m <= 20" in err


def run_limited(args):
    """Run ``python args`` from src/ in a child whose address space is capped at 1 GiB."""
    def limit():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=limit,
    )


DEEP_REQUESTS = """
import numpy as np
from kelly_memory import estimate, model
obs = estimate.ObservationSet(np.random.default_rng(0).choice([-1, 1], 200_000), 10_000)
params = model.validate_params([0.5] + [1e-6] * 30_000)
calls = [(fit, obs) for fit in (estimate.build_regression, estimate.ols_fit,
                                estimate.constrained_fit)]
calls.append((model.state_space, params, model.History([1] * 30_000)))
for call, *args in calls:
    try:
        call(*args)
    except model.DomainError as exc:
        print(call.__name__, exc)
"""


class TestDeepRequests:
    """A depth that sizes a matrix past the budget is refused before anything
    is allocated, so a 1 GiB address space is enough to refuse it."""

    def test_deep_estimate_exits_2_with_one_line(self, tmp_path):
        # X'X of depth 10,000 alone is 763 MiB, and the fit's copies of it
        # are charged too; before the charge a deep fit ended in a traceback
        # and exit 1.
        moves = tmp_path / "moves.txt"
        heads = np.random.default_rng(0).random(200_000) < 0.5
        moves.write_bytes(np.where(heads, b"+1\n", b"-1\n").tobytes())
        proc = run_limited(["-m", "kelly_memory", "estimate", str(moves), "--m", "10000"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: 190000 regression rows at depth 10000 need about 2.24 GiB,"
            " over the 2 GiB budget\n"
        )

    def test_memory_error_exits_2_with_one_line_and_no_file(self, tmp_path):
        # 9 bytes per path fit the budget, but not the child's 1 GiB: the
        # kvec growth array, 992 MiB, fails. It used to end in a traceback.
        out = tmp_path / "out.json"
        proc = run_limited([
            "-m", "kelly_memory", "simulate", "--omega=0.55,0.2", "--history=+1",
            "--n=30", "--paths=130000000", f"--out={out}",
        ])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: Unable to allocate 992. MiB")
        assert proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_deep_fits_and_state_spaces_raise_domain_error(self):
        proc = run_limited(["-c", DEEP_REQUESTS])
        assert proc.returncode == 0, proc.stderr
        fit = "190000 regression rows at depth 10000 need about 2.24 GiB, over the 2 GiB budget"
        state = "state matrices of depth 30000 need about 33.5 GiB, over the 2 GiB budget"
        assert proc.stdout.splitlines() == [
            f"build_regression {fit}", f"ols_fit {fit}", f"constrained_fit {fit}",
            f"state_space {state}",
        ]


GAMES = {
    "repeats": ("--omega=0.55,0.2", "--history=+1"),
    "never repeats": ("--omega=0.5,0.4999999", "--history=+1"),
}


def traced_peak(argv) -> int:
    """tracemalloc's peak over one command, its output text included."""
    args = cli.build_parser().parse_args(argv)
    tracemalloc.start()
    try:
        args.func(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStageBytes:
    """model.STAGE_BYTES, the per-stage bytes the memory budget charges, is an
    upper bound on what each command holds per stage of its horizon."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("game", list(GAMES))
    @pytest.mark.parametrize(
        "command",
        [("kelly",), ("elg", "--k=0.1"), ("scenario",), ("simulate", "--paths=1")],
        ids=lambda command: command[0],
    )
    def test_bytes_per_stage(self, command, game, fmt):
        # The slope between horizons n and 2n cancels import and constant
        # costs. On the game that never repeats every bettor wins about
        # log 2 per bet, so 2n stays below 1024 bets, where a simulated
        # account value would overflow.
        argv, n = [*command, *GAMES[game], f"--format={fmt}"], 500
        traced_peak(argv + ["--n=2"])  # first-call costs: lazy imports, caches
        slope = (traced_peak(argv + [f"--n={2 * n}"]) - traced_peak(argv + [f"--n={n}"])) / n
        assert 0 < slope <= model.STAGE_BYTES


def _reject_constant(name):
    raise ValueError(f"JSON holds the non-finite constant {name}")


def game_argv(omega, history, n):
    """The --omega, --history and --n arguments of a game command."""
    return [
        "--omega=" + ",".join(map(repr, omega)),
        "--history=" + ",".join("+1" if v == 1 else "-1" for v in history),
        f"--n={n}",
    ]


@st.composite
def cli_requests(draw):
    """(argv, outcome file text, output format): small sizes, valid or not."""
    command = draw(st.sampled_from(("kelly", "elg", "scenario", "simulate", "estimate")))
    argv, data = [command], ""
    if command == "estimate":
        data = "".join(draw(st.lists(st.sampled_from(("+1\n", "-1\n")), max_size=60)))
        argv += ["{data}", f"--m={draw(st.integers(1, 3))}"]
        if draw(st.booleans()):
            argv.append("--constrained")
    else:
        params, history = draw(valid_games())
        n = draw(st.integers(0, 40))
        argv += game_argv(params.omega, history.values, n)
        fraction = st.floats(-1.0, 1.0)
        if command == "elg" or (command == "simulate" and draw(st.booleans())):
            ks = draw(st.one_of(st.lists(fraction, min_size=1, max_size=1),
                                st.lists(fraction, min_size=n, max_size=n)))
            argv.append("--k=" + ",".join(map(repr, ks)))
        if command == "simulate":
            argv += [f"--paths={draw(st.integers(1, 200))}", f"--seed={draw(st.integers(0, 99))}"]
        if command != "kelly" and draw(st.booleans()):
            argv.append("--bits")
    fmt = draw(st.sampled_from((None, "json", "csv")))
    if fmt is not None:
        argv.append(f"--format={fmt}")
    precision = draw(st.one_of(st.none(), st.integers(-1, 20)))
    if precision is not None:
        argv.append(f"--precision={precision}")
    return argv, data, fmt or ("csv" if command == "scenario" else "json")


def run_on_file(argv, data):
    """cli.main(argv), {data} in argv naming a file that holds ``data``.

    Any warning is raised as an error, so a run that warns fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_bytes(data.encode())
        argv = [a.replace("{data}", str(path)) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
    return code, out.getvalue(), err.getvalue()


def is_one_line_error(code, out, err) -> bool:
    """Checks that the run either succeeded quietly or failed with exit 2/3,
    no output and one stderr line; tells which."""
    assert code in (0, 2, 3)
    if code != 0:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        return True
    assert err == ""
    return False


def check_output(out, fmt):
    """JSON with no non-finite constant, or CSV whose numeric cells are finite."""
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
        return
    for line in out.splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), line


class TestOutputContract:
    """Every run prints valid JSON or finite CSV, or exits 2/3 with one stderr line."""

    @settings(deadline=None, max_examples=150)
    @given(request=cli_requests())
    def test_valid_output_or_one_line_error(self, request):
        argv, data, fmt = request
        code, out, err = run_on_file(argv, data)
        if not is_one_line_error(code, out, err):
            check_output(out, fmt)


class TestFileContract:
    """The same contract over file contents: blank and padded lines, CRLF,
    short, long and quoted rows, non-numeric and non-finite values."""

    @settings(deadline=None, max_examples=150)
    @given(text=price_files(), tie=st.sampled_from(("drop", "up", "down")))
    def test_ingest(self, text, tie):
        code, out, err = run_on_file(["ingest", "{data}", f"--tie={tie}"], text)
        if not is_one_line_error(code, out, err):
            assert out and set(out.splitlines()) <= {"+1", "-1"}

    @settings(deadline=None, max_examples=150)
    @given(
        case=outcome_files(),
        m=st.integers(1, 3),
        constrained=st.booleans(),
        fmt=st.sampled_from(("json", "csv")),
    )
    def test_estimate(self, case, m, constrained, fmt):
        text, column = case
        argv = ["estimate", "{data}", f"--m={m}", f"--format={fmt}"]
        argv += ["--constrained"] * constrained + [f"--column={column}"] * (column is not None)
        code, out, err = run_on_file(argv, text)
        if not is_one_line_error(code, out, err):
            check_output(out, fmt)


def printed_record(argv, data=""):
    """The JSON record of a run that must succeed."""
    code, out, err = run_on_file(argv, data)
    assert (code, err) == (0, ""), err
    return json.loads(out)


def assert_near(printed, exact, bound):
    """Printed values within ``bound`` of the library's at the unrounded input,
    plus half a unit in the 12th digit that printing them drops and 1e-13
    for the arithmetic's own rounding."""
    printed, exact = np.asarray(printed, float), np.asarray(exact, float)
    assert np.all(np.abs(printed - exact) <= bound + 5e-12 * np.abs(exact) + 1e-13), (
        printed, exact, bound,
    )


def probability_moves(printed, exact, n):
    """How far reading ``printed`` for ``exact`` omega moves the head
    probabilities: (any p_k of n stages, the long-run p).

    With e = sum |printed - exact|, p'_k - p_k = dw0 + sum dwi (2 p'_{k-i} - 1)
    + 2 sum wi (p'_{k-i} - p_{k-i}), and 2 sum |wi| < 1, so the gap grows by
    at most e a stage and never past e / (1 - 2 sum |wi|), which also bounds
    the long-run p. e is widened by 1e-15 for the recursion's own rounding.
    """
    e = sum(abs(a - b) for a, b in zip(printed, exact)) + 1e-15
    g = 1.0 - 2.0 * sum(abs(w) for w in exact[1:])
    return e * min(n, 1.0 / g), e / g


def elg_moves(dh, dk, fractions):
    """How far ELG(h, K) = h log(1 + K) + (1 - h) log(1 - K) moves when h moves
    by dh and K by dk, for |K| up to the largest among ``fractions``, exact
    or printed (1e-11 more covers the printing): its slopes in h and K are
    at most log((1 + |K|)/(1 - |K|)) and 1/(1 - |K|)."""
    k = float(np.abs(np.concatenate([np.ravel(f) for f in fractions])).max()) + 1e-11
    return dh * (math.log1p(k) - math.log1p(-k)) + dk / (1.0 - k)


@st.composite
def edge_outcomes(draw):
    """(outcome file text, m, history): outcomes of a game at or near the
    hyperdiamond's edge, whose least-squares point often lies outside."""
    m = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=m + 1,
                        max_size=m + 1))
    size = sum(abs(v) for v in raw)
    assume(size > 0)
    scale = (model.DIAMOND_RADIUS - draw(st.sampled_from((0.0, 1e-9, 1e-5)))) / size
    omega = [0.5 + scale * raw[0]] + [scale * v for v in raw[1:]]
    history = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m)))
    try:
        spec = model.GameSpec(model.validate_params(omega), model.History(history),
                              draw(st.integers(2 * m + 2, 3000)))
    except HyperdiamondViolation:
        assume(False)
    data = simulate.sample_path(spec, stream_seed=draw(st.integers(0, 2**32 - 1)))
    return "".join("+1\n" if v == 1 else "-1\n" for v in data), m, history


class TestRoundTrips:
    """What one command prints (JSON, default digits) is valid input to the next.

    The second command must succeed and agree with the library at the
    unrounded values, within what the 12-digit rounding of its input can
    move its result (probability_moves, elg_moves).
    """

    @settings(deadline=None, max_examples=100)
    @given(outcomes=edge_outcomes(), n=st.integers(1, 30), k=st.floats(-0.5, 0.5),
           seed=st.integers(0, 99))
    # A projected fit whose printed digits lay outside the hyperdiamond:
    # 0.2500000005 and -0.2499999995 sum to 0.499999999 past DIAMOND_RADIUS.
    @example(outcomes=("+1\n-1\n-1\n+1\n", 1, (1,)), n=3, k=0.1, seed=0)
    def test_estimate_omega_feeds_the_game_commands(self, outcomes, n, k, seed):
        text, m, history = outcomes
        try:
            fit = estimate.constrained_fit(
                estimate.ObservationSet([1 if t == "+1" else -1 for t in text.split()], m)
            )
        except (InsufficientData, SingularDesign, NonConvergence):
            assume(False)
        printed = printed_record(["estimate", "{data}", f"--m={m}", "--constrained"], text)
        assert_near(printed["omega"], fit.omega_hat, 0.0)
        spec = model.GameSpec(model.validate_params(fit.omega_hat), model.History(history), n)
        game = game_argv(printed["omega"], history, n)
        dp, dpi = probability_moves(printed["omega"], fit.omega_hat, n)

        kelly = printed_record(["kelly", *game])
        kstar, kn = policy.kelly_limit(spec.params), policy.kelly_horizon(spec)
        kvec = policy.kelly_timevarying(spec).fractions
        assert_near(kelly["kstar"], kstar, 2 * dpi)
        assert_near(kelly["kn"], kn, 2 * dp)
        assert_near(kelly["kvec"], kvec, 2 * dp)
        rows = printed_record(["scenario", *game, "--format=json"])["rows"]
        table = simulate.scenario_table(spec)
        fractions = (k, kstar, kelly["kstar"], kvec, kelly["kvec"], table["kn"],
                     [row["kn"] for row in rows])
        elg_bound = elg_moves(dp, 2 * max(dp, dpi), fractions)

        elg = printed_record(["elg", *game, f"--k={k!r}"])["elg"]
        assert_near(elg, policy.elg(spec, policy.BettorPolicy.constant(k)), elg_bound)

        for key, bound in (("kstar", 2 * dpi), ("kn", 2 * dp), ("elg_kstar", elg_bound),
                           ("elg_kn", elg_bound), ("elg_kvec", elg_bound)):
            assert_near([row[key] for row in rows], table[key], bound)

        config = simulate.SimConfig(spec, simulate.standard_policies(spec), 50, seed)
        stats = simulate.monte_carlo_elg(config).stats
        got = printed_record(["simulate", *game, "--paths=50", f"--seed={seed}"])["policies"]
        # Each path draws the same uniforms; an outcome flips only if one
        # falls between a head probability and its moved value.
        assert_near([s["analytic_elg"] for s in got], [s.analytic_elg for s in stats], elg_bound)
        assert_near([s["mean_log_growth"] for s in got], [s.mean_log_growth for s in stats],
                    elg_bound)

    @settings(deadline=None, max_examples=100)
    @given(game=valid_games(max_depth=3), n=st.integers(1, 30), seed=st.integers(0, 99))
    def test_kelly_fractions_feed_elg_and_simulate(self, game, n, seed):
        params, history = game
        spec = model.GameSpec(params, history, n)
        argv = game_argv(params.omega, history.values, n)
        kelly = printed_record(["kelly", *argv])
        for printed, exact in ((kelly["kn"], policy.kelly_horizon(spec)),
                               (kelly["kvec"], policy.kelly_timevarying(spec).fractions)):
            printed, pol = np.atleast_1d(printed), policy.BettorPolicy(exact)
            bound = elg_moves(0.0, float(np.abs(printed - exact).max()), (printed, exact))
            k = "--k=" + ",".join(map(repr, printed.tolist()))
            assert_near(printed_record(["elg", *argv, k])["elg"], policy.elg(spec, pol), bound)
            got = printed_record(["simulate", *argv, k, "--paths=50", f"--seed={seed}"])
            config = simulate.SimConfig(spec, (("custom", pol),), 50, seed)
            stats = simulate.monte_carlo_elg(config).stats[0]
            assert_near(got["policies"][0]["analytic_elg"], stats.analytic_elg, bound)
            assert_near(got["policies"][0]["mean_log_growth"], stats.mean_log_growth, bound)

    @settings(deadline=None, max_examples=100)
    @given(prices=st.lists(st.sampled_from((99.5, 100.0, 100.25, 101.0, 1e-3, 7e4)),
                           min_size=2, max_size=80),
           tie=st.sampled_from(("drop", "up", "down")), m=st.integers(1, 3),
           constrained=st.booleans())
    def test_ingest_moves_feed_estimate(self, prices, tie, m, constrained):
        text = "price\n" + "".join(f"{p!r}\n" for p in prices)
        code, moves, err = run_on_file(["ingest", "{data}", f"--tie={tie}"], text)
        try:
            expected = estimate.ingest_prices(prices, tie)
        except KellyMemoryError:
            assert code == 2
            return
        assert (code, err) == (0, "")
        assert moves == "".join("+1\n" if v == 1 else "-1\n" for v in expected)
        argv = ["estimate", "{data}", f"--m={m}"] + ["--constrained"] * constrained
        code, out, err = run_on_file(argv, moves)
        try:
            obs = estimate.ObservationSet(expected, m)
            fit = (estimate.constrained_fit if constrained else estimate.ols_fit)(obs)
        except NumericalError:
            assert code == 3
            return
        except KellyMemoryError:
            assert code == 2
            return
        assert (code, err) == (0, "")
        # The moves file is exact, so only the printing rounds.
        payload = json.loads(out)
        assert_near(payload["omega"], fit.omega_hat, 0.0)
        assert_near(payload["rss"], fit.rss, 0.0)
        assert payload["projected"] == fit.projected


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(args, **env):
    """Run ``python args`` from src/ with none of the BLAS thread variables but ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True,
        env={**base, "PYTHONPATH": str(src), **env},
    )


def test_simulate_imports_no_executor_or_logging():
    # The Monte Carlo runs on the calling thread; concurrent.futures would
    # bring logging with it, a dozen modules held at simulate's peak.
    probe = (
        "import sys; from kelly_memory import cli; "
        "code = cli.main(['simulate', '--omega', '0.55,0.20', '--history', '+1', "
        "'--n', '30', '--paths', '20000']); "
        "print(code, sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    assert run_python(["-c", probe]).stdout.splitlines()[-1] == "0 []"


class TestBlasThreads:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task")
        or len(os.sched_getaffinity(0)) < 2
        or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        reason="counts OpenBLAS's pool under /proc/self/task, which one CPU would not start",
    )
    @pytest.mark.parametrize(
        "env, tasks", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)]
    )
    def test_numpy_loads_one_thread_unless_the_caller_chose(self, env, tasks):
        probe = (
            "import json, os; before = dict(os.environ); import kelly_memory; "
            "print(json.dumps([len(os.listdir('/proc/self/task')), dict(os.environ) == before]))"
        )
        out = run_python(["-c", probe], **env).stdout
        assert json.loads(out) == [tasks, True]

    def test_thread_count_moves_no_printed_digit(self, tmp_path):
        # 2e5 moves of an m = 3 process near the hyperdiamond boundary,
        # whose least-squares point lands outside, so the fit projects.
        omega, window, rng = (0.6, 0.15, -0.15, 0.09999), [1, -1, 1], random.Random(2)
        lines = []
        for _ in range(200_000):
            head = rng.random() < omega[0] + sum(w * x for w, x in zip(omega[1:], window))
            window = [1 if head else -1] + window[:-1]
            lines.append("+1" if head else "-1")
        moves = tmp_path / "moves.txt"
        moves.write_text("\n".join(lines) + "\n")
        argv = ["-m", "kelly_memory", "estimate", str(moves), "--m", "3", "--constrained",
                "--precision", "17"]
        unset = run_python(argv).stdout
        assert json.loads(unset)["projected"] is True
        assert run_python(argv, OPENBLAS_NUM_THREADS="2").stdout == unset


KELLY_3 = ("kelly", "--omega=0.55,0.2", "--history=+1", "--n=3")


def run_buffered(args, **kwargs):
    """Run ``python args`` from src/ with stdout block-buffered.

    PYTHONUNBUFFERED is removed from the child's environment, so that
    what the CLI writes waits in the buffer until it is flushed.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], timeout=120, env={**env, "PYTHONPATH": str(src)}, **kwargs
    )


class TestProcessExit:
    """entry_point flushes both streams and ends the process with os._exit."""

    def test_closed_stdout_exits_2_with_one_line(self):
        # fd 1 closed before Python starts leaves sys.stdout None; the write
        # used to end in an AttributeError traceback and exit 1.
        proc = run_buffered(
            ["-m", "kelly_memory", *KELLY_3], stdout=None, preexec_fn=lambda: os.close(1)
        )
        assert (proc.returncode, proc.stderr) == (2, b"error: stdout is closed\n")

    @pytest.mark.parametrize("n", ["3", "100000"], ids=["buffered", "written"])
    def test_broken_pipe_exits_2_with_one_line(self, n):
        # At n = 3 the output waits in the buffer and only the flush meets
        # the closed pipe; it used to exit 120 with two lines of "Exception
        # ignored". At n = 1e5 the write itself fails, inside main.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_buffered(["-m", "kelly_memory", *KELLY_3[:-1], f"--n={n}"], stdout=write)
        finally:
            os.close(write)
        message = f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
        assert (proc.returncode, proc.stderr) == (2, message.encode())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is full")
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("kelly", "--omega=0.55,0.2", "--history=+1", "--n=-1"), 2),
            (("simulate", "--omega=0.9,0", "--history=+1", "--n=20000", "--k=0.99",
              "--paths=10"), 3),
        ],
        ids=["invalid", "numerical"],
    )
    def test_unwritable_stderr_keeps_the_exit_code(self, argv, code, stderr):
        # The error line is lost, but the exit code still tells. The print
        # in main's handler used to raise OSError and end the run in exit 1.
        if stderr == "closed":
            proc = run_buffered(
                ["-m", "kelly_memory", *argv], stderr=None, preexec_fn=lambda: os.close(2)
            )
        else:
            with open("/dev/full", "wb") as full:
                proc = run_buffered(["-m", "kelly_memory", *argv], stderr=full)
        assert (proc.returncode, proc.stdout) == (code, b"")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize(
        "argv",
        [("kelly", "--n=100000"), ("scenario", "--format=csv")],
        ids=["kelly-1e5", "scenario-csv"],
    )
    def test_no_buffered_byte_lost(self, argv, to_file, capsys, tmp_path):
        # kelly --n 1e5 prints 1.7 MB; scenario's CSV fits in the buffer.
        argv = [*argv, "--omega=0.55,0.2", "--history=+1"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        out = tmp_path / "out.txt"
        flags = [f"--out={out}"] * to_file
        proc = run_buffered(["-m", "kelly_memory", *argv, *flags])
        assert (proc.returncode, proc.stderr) == (0, b"")
        if to_file:
            assert proc.stdout == b""
            assert out.read_bytes() == expected.encode()
        else:
            assert proc.stdout == expected.encode()

    def test_atexit_handlers_do_not_run(self):
        # The interpreter's teardown is skipped; a usage error still exits normally.
        probe = (
            "import atexit, sys; atexit.register(print, 'teardown'); "
            "from kelly_memory import cli; sys.argv[1:] = {!r}; cli.entry_point()"
        )
        ran = run_buffered(["-c", probe.format(list(KELLY_3))])
        assert ran.returncode == 0 and b"teardown" not in ran.stdout
        usage = run_buffered(["-c", probe.format(["kelly"])])
        assert usage.returncode == 2 and usage.stdout == b"teardown\n"
