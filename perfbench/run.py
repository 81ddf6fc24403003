"""Benchmark of the kelly-memory CLI, end to end and per layer.

    python3 perfbench/run.py --workload game|fit|all \
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

With ``--trace 0`` every command of the workload runs as its own
``python -m kelly_memory`` process from ``src/``, one at a time (closed
loop, one client), repeated until ``--seconds`` have been measured.
Each repetition starts with a fresh process that imports
``kelly_memory.cli``. Reported are the means over the repetitions of the
sequence's wall time and CPU time (user + sys, from ``os.wait4``), and
the medians of the largest max-RSS of a command and of the import time.
The speed of a shared virtual machine drifts: on the 2-CPU machine the
baseline comes from, one process ran the same ingest in about 1.9 s or
about 2.7 s, as if the machine switched between a fast and a slow state,
and the share of slow processes changed from minute to minute. The
median of such samples jumps between the two states while the mean
moves with the share: on earlier result sets, the ten-seed spread of
the mean was 10 to 35% smaller than that of the median. The bounds in
BENCHMARK.json are wide all the same.

With ``--trace 1`` the same commands run in-process through
``cli.main(argv)``: after one untimed warm-up pass, each repetition
makes an untraced pass and a pass traced by ``spans.py``, the untraced
one first on even repetitions and second on odd ones. Reported are the per-layer metrics (medians over
traced passes) and ``trace_overhead``, traced over untraced wall time.

Every command's output is checked against references that do not use
the package. Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--out`` appends the full record, with provenance and the
raw samples, as one JSON line; ``compare.py`` reads such files.
Without ``src/kelly_memory`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 120
# Metrics reported as a mean over repetitions; the others as a median.
MEAN_METRICS = ("wall_s", "cpu_s")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    # Bytecode caching stays on, as for an installed CLI, so setup_s times
    # a warm import; the seed comes only from the command line.
    drop = ("KELLY_MEMORY_SEED", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, workdir: Path, env: dict):
    """Run one process to completion: (wall s, cpu s, max RSS MB, exit code, stdout, stderr)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        # The child stays a zombie until wait4 reaps it, so its pid cannot
        # be reused while the timer may still fire.
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text(), err_path.read_text()


def stop_after(start: float, done: int, seconds: float) -> bool:
    """True when one more repetition, at the mean pace so far, would overrun."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done > seconds


def command_problems(cmd: workloads.Command, code, out: str, err: str) -> list[str]:
    """Why a command failed: nonzero exit, a traceback, or a failed check."""
    if code != 0:
        last = err.strip().splitlines()[-1:] or ["no message"]
        return [f"{cmd.label}: exit {code}: {last[0]}"]
    if "Traceback" in err:
        return [f"{cmd.label}: traceback on stderr"]
    return cmd.check(cmd.output.read_text() if cmd.output else out)


def process_run(workload: workloads.Workload, seconds: float, workdir: Path) -> dict:
    env = child_env()
    import_argv = [sys.executable, "-c", "import kelly_memory.cli"]
    run_process(import_argv, workdir, env)  # fills the bytecode cache
    samples = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    attempted, failed, problems = 0, 0, []
    start = perf_counter()
    while True:
        # One import per repetition spreads the set-up samples over the run.
        setup, _, _, code, _, err = run_process(import_argv, workdir, env)
        if code != 0:
            raise SystemExit(f"cannot import kelly_memory.cli from {SRC}: {err.strip()}")
        samples["setup_s"].append(setup)
        wall = cpu = rss = 0.0
        for cmd in workload.commands:
            c_wall, c_cpu, c_rss, code, out, err = run_process(
                [sys.executable, "-m", "kelly_memory", *cmd.argv], workdir, env
            )
            wall, cpu, rss = wall + c_wall, cpu + c_cpu, max(rss, c_rss)
            found = command_problems(cmd, code, out, err)
            attempted += 1
            failed += bool(found)
            problems += found
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        if stop_after(start, len(samples["wall_s"]), seconds):
            break
    metrics = {name: (statistics.fmean if name in MEAN_METRICS else statistics.median)(values)
               for name, values in samples.items()}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "samples": samples}


def import_package():
    """Import kelly_memory from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import kelly_memory

    if Path(kelly_memory.__file__).resolve().parent != (SRC / "kelly_memory").resolve():
        raise SystemExit(f"kelly_memory imported from {kelly_memory.__file__}, not {SRC}")
    return kelly_memory


def in_process_pass(workload: workloads.Workload, cli):
    """Run every command through cli.main: (summed wall s, [(cmd, code, out, err)]).

    Outputs written to files must be checked before the next pass
    overwrites them.
    """
    wall, results = 0.0, []
    for cmd in workload.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
                err.write(traceback.format_exc())
            wall += perf_counter() - start
        results.append((cmd, code, out.getvalue(), err.getvalue()))
    return wall, results


def trace_overhead(untraced: list[float], traced: list[float]) -> float:
    """Traced over untraced wall time, from passes run in alternating order.

    The median ratio of the repetitions that ran the untraced pass first
    and that of those that ran it second are combined by their geometric
    mean, so a pass that gains from running second favours neither side.
    """
    ratios = [t / u for u, t in zip(untraced, traced)]
    first, second = ratios[0::2], ratios[1::2]
    if not second:
        return first[0]
    return (statistics.median(first) * statistics.median(second)) ** 0.5


def traced_run(workload: workloads.Workload, seconds: float) -> dict:
    import_package()
    from kelly_memory import cli, simulate

    walls = {"untraced": [], "traced": []}
    passes, problems = [], []
    attempted = failed = 0

    def checked_pass(tracer):
        nonlocal attempted, failed
        with contextlib.nullcontext() if tracer is None else spans.installed(tracer):
            wall, results = in_process_pass(workload, cli)
        for cmd, code, out, err in results:
            found = command_problems(cmd, code, out, err)
            attempted += 1
            failed += bool(found)
            problems.extend(found)
        return wall

    # Lazy set-up in the package and numpy finishes before timing starts.
    checked_pass(None)
    start = perf_counter()
    while True:
        tracer = spans.Tracer()
        # ABBA: which pass runs first alternates, so an order effect cancels.
        order = ("untraced", "traced") if len(passes) % 2 == 0 else ("traced", "untraced")
        for kind in order:
            walls[kind].append(checked_pass(tracer if kind == "traced" else None))
        with spans.installed(tracer):
            # The public sampler, timed alone on each simulated game.
            configs = [s.info["config"] for s in tracer.spans if s.info.get("config")]
            for config in configs:
                simulate.sample_paths(config.spec, config.paths, config.seed)
        metrics, integrity = spans.layer_metrics(tracer, workload.required_spans, simulate.BLOCK_PATHS)
        problems += [p for p in integrity if p not in problems]
        passes.append(metrics)
        if stop_after(start, len(passes), seconds):
            break
    metrics = {
        name: None if any(p[name] is None for p in passes) else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
    metrics["trace_overhead"] = trace_overhead(walls["untraced"], walls["traced"])
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "samples": {**walls, "passes": passes}}


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "package": import_package().__version__,
        "commit": git_commit(),
        "workload_seed": seed,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        workload = workloads.build(name, seed, workdir)
        result = traced_run(workload, seconds) if trace else process_run(workload, seconds, workdir)
    if not trace:
        result["metrics"]["error_rate"] = result["failed"] / result["attempted"]
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "correct": not result["problems"], **result}


def report(record: dict, specs: list[dict]) -> None:
    """Print one workload's metrics by name, with units, for a reader."""
    print(f"{record['workload']}: seed {record['seed']}, trace {record['trace']}, "
          f"{record['attempted']} commands, {record['failed']} failed")
    for s in specs:
        value, samples = record["metrics"][s["name"]], record["samples"].get(s["name"])
        shown = "missing" if value is None else f"{value:.6g} {s['unit']}"
        if record["trace"]:
            note = spans.expected_effect(s["name"])
        else:
            q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
            stat = "mean" if s["name"] in MEAN_METRICS else "median"
            note = (f"{stat} of {len(samples)}; median {statistics.median(samples):.6g}, "
                    f"quartiles {q1:.6g} .. {q3:.6g}")
        print(f"  {s['name']:36s} {shown:>20s}   {note}")
    if not record["trace"]:
        print(f"  {'error_rate':36s} {record['metrics']['error_rate']:>20.6g}   "
              f"{record['failed']} of {record['attempted']} commands failed")
    for problem in dict.fromkeys(record["problems"]):
        print(f"check failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append result records (JSON lines)")
    args = parser.parse_args(argv)

    if not (SRC / "kelly_memory" / "cli.py").is_file():
        print(f"error: no kelly_memory sources under {SRC}", file=sys.stderr)
        return 2
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in chosen]
    for record in records:
        report(record, specs)
    if args.out is not None:
        with args.out.open("a") as fh:
            for record in records:
                fh.write(json.dumps({**record, "provenance": provenance(record["seed"])}) + "\n")

    # With --workload all, metric names carry the workload as a prefix.
    metrics = {
        (f"{r['workload']}." if len(records) > 1 else "") + s["name"]:
            {"value": r["metrics"][s["name"]], "unit": s["unit"]}
        for r in records for s in specs
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
