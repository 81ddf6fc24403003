"""Per-layer tracing of kelly_memory from outside the package.

``installed`` swaps every public function of the model, policy,
simulate and estimate modules, and the cli's ``cmd_*`` entry points and
``main``, for a wrapper that records a span (name, start, end, parent)
and a few counts taken from the call's arguments or result. Calls made
inside a module go through the module's globals, so they are caught
too (``expected_heads`` -> ``prob_sequence``). Spans stay in memory and
``layer_metrics`` turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

PACKAGE = "kelly_memory"
LAYERS = ("model", "policy", "simulate", "estimate", "cli")
CLI_COMMANDS = ("kelly", "scenario", "simulate", "ingest", "estimate")

# Self time below this is float rounding of nested intervals; beyond it a
# negative self time means the span tree is broken.
_ROUNDING_S = 1e-9

# Counts recorded at span end, from (args, kwargs, result).
_COUNTERS = {
    "model.prob_sequence": lambda a, kw, r: {"p_k": len(r)},
    "simulate.monte_carlo_elg": lambda a, kw, r: {"config": a[0] if a else kw["config"]},
    "simulate.sample_paths": lambda a, kw, r: {"paths": r.shape[0], "path_steps": r.size},
    "estimate.build_regression": lambda a, kw, r: {"rows": len(r[1])},
    "estimate.constrained_fit": lambda a, kw, r: {"pg_iterations": r.iterations},
}


def _output_bytes(args, kwargs, result):
    return {"output_bytes": len(result.encode())}


# Which end-to-end metric a per-layer metric should move and on which
# workload, fixed before measuring; the first matching prefix applies.
EXPECTED_EFFECT = (
    ("model.", "wall_s, cpu_s on game (scenario leg); not on fit"),
    ("policy.", "wall_s on game (scenario leg)"),
    ("simulate.scenario_table", "wall_s on game (scenario leg)"),
    ("simulate.monte_carlo_elg", "wall_s on game (simulate legs)"),
    ("simulate.reduce_s", "wall_s on game (derived: monte_carlo_elg - sample_paths)"),
    ("simulate.", "wall_s, peak_rss_mb on game (simulate legs)"),
    ("estimate.", "wall_s on fit"),
    ("cli.", "wall_s on game (kelly leg) and fit (ingest leg); not the simulate legs"),
    ("trace_overhead", "none; the cost of tracing itself"),
)


def expected_effect(metric: str) -> str:
    return next((text for prefix, text in EXPECTED_EFFECT if metric.startswith(prefix)), "")


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "child", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.start = self.end = self.child = 0.0
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by direct children."""
        return self.duration - self.child


class Tracer:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name) or (_output_bytes if name.startswith("cli.cmd_") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
            if counter is not None:
                span.info = counter(args, kwargs, result)
            return result

        return traced


def _traced_name(layer: str, name: str) -> bool:
    if layer == "cli":
        return name.startswith("cmd_") or name == "main"
    return not name.startswith("_")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the package's traced functions for the duration of the block."""
    saved = []
    try:
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and _traced_name(layer, name)
                ):
                    saved.append((module, name, obj))
                    setattr(module, name, tracer.wrap(f"{layer}.{name}", obj))
        yield tracer
    finally:
        for module, name, obj in saved:
            setattr(module, name, obj)


def _self(spans):
    return sum(max(0.0, s.self_time) for s in spans)


def _total(spans):
    return sum(s.duration for s in spans)


def _count(key):
    return lambda spans: sum(s.info.get(key, 0) for s in spans)


def _useful_ratio(spans):
    """p_k values a request needs (its longest horizon) over those computed."""
    longest = defaultdict(int)
    for s in spans:
        longest[id(s.root)] = max(longest[id(s.root)], s.info.get("p_k", 0))
    computed = _count("p_k")(spans)
    return sum(longest.values()) / computed if computed else 1.0


def _ns_per_step(spans):
    steps = _count("path_steps")(spans)
    return 1e9 * _total(spans) / steps if steps else 0.0


def _metric_table(block_paths: int):
    """(metric, source span, reduction over that span's calls)."""
    table = [
        ("model.prob_sequence.self_s", "model.prob_sequence", _self),
        ("model.prob_sequence.calls", "model.prob_sequence", len),
        ("model.p_k_computed", "model.prob_sequence", _count("p_k")),
        ("model.p_k_useful_ratio", "model.prob_sequence", _useful_ratio),
        ("policy.elg_time_varying.self_s", "policy.elg_time_varying", _self),
        ("policy.elg_time_invariant.self_s", "policy.elg_time_invariant", _self),
        ("policy.kelly_timevarying.self_s", "policy.kelly_timevarying", _self),
        ("policy.kelly_horizon.self_s", "policy.kelly_horizon", _self),
        ("simulate.scenario_table.self_s", "simulate.scenario_table", _self),
        ("simulate.sample_paths.s", "simulate.sample_paths", _total),
        ("simulate.sampler_ns_per_step", "simulate.sample_paths", _ns_per_step),
        ("simulate.path_steps", "simulate.sample_paths", _count("path_steps")),
        ("simulate.blocks", "simulate.sample_paths",
         lambda spans: sum(-(-s.info.get("paths", 0) // block_paths) for s in spans)),
        ("simulate.monte_carlo_elg.s", "simulate.monte_carlo_elg", _total),
        ("estimate.read_prices.s", "estimate.read_prices", _total),
        ("estimate.ingest_prices.s", "estimate.ingest_prices", _total),
        ("estimate.read_outcomes.s", "estimate.read_outcomes", _total),
        ("estimate.build_regression.s", "estimate.build_regression", _total),
        ("estimate.ols_fit.self_s", "estimate.ols_fit", _self),
        ("estimate.constrained_fit.self_s", "estimate.constrained_fit", _self),
        ("estimate.pg_iterations", "estimate.constrained_fit", _count("pg_iterations")),
        ("estimate.rows", "estimate.build_regression", _count("rows")),
        ("cli.main.self_s", "cli.main", _self),
    ]
    table += [(f"cli.cmd_{c}.self_s", f"cli.cmd_{c}", _self) for c in CLI_COMMANDS]
    return table


def layer_metrics(tracer: Tracer, required, block_paths: int):
    """Per-layer metrics of one traced pass, and the integrity problems found.

    A metric whose source span is required but never ran is None (missing,
    not zero). The sampler probe runs outside any command, so module self
    times count only spans under ``cli.main``.
    """
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    missing = [name for name in required if not by_name[name]]
    problems = [f"missing span {name}: no call was traced" for name in missing]
    problems += sorted(
        {f"negative self time in {s.name}" for s in tracer.spans if s.self_time < -_ROUNDING_S}
    )

    metrics = {}
    for metric, source, reduce in _metric_table(block_paths):
        metrics[metric] = None if source in missing else reduce(by_name[source])
    mc, sampler = metrics["simulate.monte_carlo_elg.s"], metrics["simulate.sample_paths.s"]
    metrics["simulate.reduce_s"] = None if None in (mc, sampler) else mc - sampler
    commands = [s for s in tracer.spans if s.root.name == "cli.main"]
    metrics["cli.output_bytes"] = (
        None if "cli.main" in missing
        else _count("output_bytes")([s for s in commands if s.name.startswith("cli.cmd_")])
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _self(s for s in commands if s.name.startswith(layer + "."))
    return metrics, problems
