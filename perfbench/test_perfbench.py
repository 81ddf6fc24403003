"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import types

import pytest

import compare
import run
import spans
import workloads

TINY = workloads.Shapes(scenario_n=8, kelly_n=50, sim_n=5, sim_short_n=2, paths=20_000, prices=100_000)


@pytest.fixture(scope="module")
def package():
    run.import_package()
    from kelly_memory import cli, model, policy, simulate

    return types.SimpleNamespace(cli=cli, model=model, policy=policy, simulate=simulate)


def problems_of(results):
    return [p for cmd, code, out, err in results for p in run.command_problems(cmd, code, out, err)]


def traced(workload, package):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        _, results = run.in_process_pass(workload, package.cli)
        for s in [s for s in tracer.spans if s.info.get("config")]:
            config = s.info["config"]
            package.simulate.sample_paths(config.spec, config.paths, config.seed)
    metrics, integrity = spans.layer_metrics(
        tracer, workload.required_spans, package.simulate.BLOCK_PATHS
    )
    return metrics, integrity, problems_of(results), tracer


@pytest.mark.parametrize("name", ["game", "fit"])
@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_pass_checks_and_spans_are_whole(name, seed, package, tmp_path):
    workload = workloads.build(name, seed, tmp_path, TINY)
    metrics, integrity, problems, tracer = traced(workload, package)
    assert problems == []
    assert integrity == []
    assert all(s.self_time >= -1e-9 for s in tracer.spans)
    assert all(v is not None and v >= 0 for k, v in metrics.items() if k != "simulate.reduce_s")


def test_exact_counts(package, tmp_path):
    n_s, n_k, n_sim = TINY.scenario_n, TINY.kelly_n, TINY.sim_n + TINY.sim_short_n
    game, *_ = traced(workloads.build("game", 1, tmp_path, TINY), package)
    # Five p_k passes per scenario row, two for kelly, five per simulate.
    assert game["model.p_k_computed"] == 5 * n_s * (n_s + 1) // 2 + 2 * n_k + 5 * n_sim
    assert game["model.p_k_useful_ratio"] == (n_s + n_k + n_sim) / game["model.p_k_computed"]
    assert game["simulate.path_steps"] == TINY.paths * n_sim
    assert game["simulate.blocks"] == 2 * -(-TINY.paths // package.simulate.BLOCK_PATHS)

    fit, *_ = traced(workloads.build("fit", 1, tmp_path, TINY), package)
    assert fit["model.p_k_computed"] == 0
    assert fit["estimate.rows"] > 0


def test_bypassed_wrapper_is_reported_missing(package, tmp_path, monkeypatch):
    # As if callers reached prob_sequence some way the tracer cannot wrap
    # (say `from .model import prob_sequence` bound before tracing starts).
    monkeypatch.setattr(package.model, "prob_sequence", functools.partial(package.model.prob_sequence))
    metrics, integrity, problems, _ = traced(workloads.build("game", 1, tmp_path, TINY), package)
    assert problems == []
    assert "missing span model.prob_sequence: no call was traced" in integrity
    assert metrics["model.prob_sequence.self_s"] is None
    assert metrics["model.p_k_computed"] is None


def test_negative_self_time_is_reported():
    tracer = spans.Tracer()
    parent = spans.Span("cli.main", None)
    parent.end, parent.child = 1.0, 2.0
    tracer.spans.append(parent)
    _, integrity = spans.layer_metrics(tracer, (), 8192)
    assert integrity == ["negative self time in cli.main"]


def outputs(workload, package):
    _, results = run.in_process_pass(workload, package.cli)
    return [cmd.output.read_text() if cmd.output else out for cmd, _, out, _ in results]


def test_checks_name_what_failed(tmp_path, package):
    game = workloads.build("game", 4, tmp_path, TINY)
    scenario, kelly, simulate, _ = game.commands
    table, kvec, simulated, _ = outputs(game, package)
    lines = table.splitlines()
    cells = lines[3].split(",")
    cells[5] = str(float(cells[5]) + 0.01)
    failures = scenario.check("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    assert failures and failures[0].startswith("scenario n=8: row 3 kn = ")
    cells = lines[1].split(",")
    cells[2] = str(float(cells[1]) - 1.0)  # elg_kn below elg_kstar
    failures = scenario.check("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert "scenario n=8: dominance chain broken at n=1" in failures
    assert scenario.check(lines[0] + "\n") == ["scenario n=8: 0 rows, expected 8"]

    payload = json.loads(kvec)
    payload["kvec"][10] += 1e-6
    assert kelly.check(json.dumps(payload))[0].startswith("kelly n=50: kvec[10] = ")

    payload = json.loads(simulated)
    payload["policies"][0]["mean_log_growth"] += 100 * payload["policies"][0]["std_error"]
    failures = simulate.check(json.dumps(payload))
    assert len(failures) == 1 and "kstar Monte Carlo mean" in failures[0]

    fit = workloads.build("fit", 4, tmp_path, TINY)
    ingest, estimate = fit.commands
    moves = outputs(fit, package)[0].splitlines()
    moves[5] = "+1" if moves[5] == "-1" else "-1"
    failures = ingest.check("\n".join(moves) + "\n")
    assert failures == [f"ingest: {len(moves)} moves, expected {len(moves)}; first difference at move 5"]
    failures = estimate.check(json.dumps({"omega": [0.9, 0.5, 0.0, 0.0], "rss": 1.0, "constrained": True}))
    assert any("outside the hyperdiamond" in f for f in failures)
    assert any(f.startswith("estimate m=3: omega[0] = 0.9") for f in failures)


def test_process_run_reports_end_to_end_metrics(tmp_path, capsys):
    workload = workloads.build("game", 1, tmp_path, TINY)
    result = run.process_run(workload, 0, tmp_path)
    assert result["failed"] == 0 and result["problems"] == []
    assert len(result["samples"]["setup_s"]) == len(result["samples"]["wall_s"])
    specs = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for s in specs:
        assert result["metrics"][s["name"]] > 0
    result["metrics"]["error_rate"] = 0.0
    run.report({"workload": "game", "seed": 1, "trace": 0, **result}, specs)
    printed = capsys.readouterr().out
    assert all(f"{s['unit']}   {'mean' if s['name'] in run.MEAN_METRICS else 'median'} of 1; "
               in printed for s in specs)
    assert "0 of 4 commands failed" in printed


def test_traced_run_checks_every_pass(tmp_path):
    workload = workloads.build("fit", 1, tmp_path, TINY)
    result = run.traced_run(workload, 0)
    # A warm-up pass, then one untraced and one traced pass, each checked.
    assert (result["attempted"], result["failed"], result["problems"]) == (6, 0, [])
    assert len(result["samples"]["untraced"]) == len(result["samples"]["traced"]) == 1
    assert result["metrics"]["trace_overhead"] > 0


def test_trace_overhead_cancels_pass_order():
    # The second pass of each repetition is 10% faster, whichever it is.
    untraced = [1.0, 0.9, 1.0, 0.9]
    traced = [0.9, 1.0, 0.9, 1.0]
    assert run.trace_overhead(untraced, traced) == pytest.approx(1.0)
    assert run.trace_overhead([2.0], [3.0]) == 1.5


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def record(workload, seed, **metrics):
    return {"workload": workload, "seed": seed, "trace": 0, "metrics": metrics}


def test_compare_verdicts(tmp_path):
    base = [record("fit", s, wall_s=10.0 + 0.1 * s, error_rate=0.0) for s in range(10)]
    cases = {
        "improved": [record("fit", s, wall_s=8.0 + 0.1 * s, error_rate=0.0) for s in range(10)],
        "no change": [record("fit", s, wall_s=10.05 + 0.1 * s, error_rate=0.0) for s in range(10)],
        "worse": [record("fit", s, wall_s=13.0 + 0.1 * s, error_rate=0.0) for s in range(10)],
        "unresolved": [record("fit", s, wall_s=10.0 + 3.0 * (s % 2) * s, error_rate=0.0) for s in range(10)],
    }
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    base_path = tmp_path / "base.jsonl"
    base_path.write_text("".join(json.dumps(r) + "\n" for r in base))
    for expected, runs in cases.items():
        path = tmp_path / f"{expected}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in runs))
        rows = {name: result for _, name, _, _, result in
                compare.compare(compare.load(base_path), compare.load(path), spec)}
        assert rows == {"wall_s": expected, "error_rate": "no change"}
    assert compare.pair_runs(base[:5], base[5:]) == []
    assert compare.main([str(base_path), str(base_path)]) == 0
