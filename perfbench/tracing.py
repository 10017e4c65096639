"""Spans around the calls into each layer of the program, for a traced run.

``Tracer.install`` wraps public functions and methods of the package from
the outside: every module binding of a wrapped function is replaced, so
calls through ``from .x import f`` are seen too, and ``restore`` puts the
originals back. Spans (id, parent, run, name, start, end, count) are kept
in memory and written out when the run ends. A span's self time is its
duration minus the durations of its direct children; the self times of
all spans plus the time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

_DATAGEN = ("gen_covariates", "gen_wasserstein_responses", "gen_linear_responses", "add_noise")


def _queries(args, out):
    return np.shape(args[2])[1] if np.ndim(args[2]) == 2 else 1


def _nbytes(args, out):
    return out.nbytes


def _rows_read(args, out):
    return out[1].shape[0]


def _instances(args, out):
    return sum(r.instances for r in out)


# (module, attribute, span name, counter). The module is the layer, and
# spans are named "<module>.<span name>"; a "{kind}" in the name is filled
# from the metric space the method is called on. The counter turns
# (args, result) into the span's count.
TARGETS = [
    ("regression", "covariate_stats", "covariate_stats", None),
    ("regression", "thresholded_precision", "thresholded_precision", None),
    ("regression", "FittedModel.weight_matrix", "weight_matrix", _nbytes),
    ("regression", "FittedModel.predict_many", "predict_many", None),
    ("regression", "fit", "fit", None),
    ("linalg", "compute_svd", "compute_svd", None),
    ("linalg", "pseudoinverse", "pseudoinverse", None),
    ("metric_spaces", "MetricSpace.frechet_mean_many", "{kind}.frechet_mean_many", _queries),
    ("metric_spaces", "EuclideanSpace.frechet_mean_many", "{kind}.frechet_mean_many", _queries),
    ("metric_spaces", "_IterativeNormSpace.frechet_mean_many", "{kind}.frechet_mean_many", _queries),
    ("metric_spaces", "WassersteinSpace.frechet_mean_many", "{kind}.frechet_mean_many", _queries),
    ("metric_spaces", "isotonic_project", "isotonic_project", None),
    ("metric_spaces", "nearest_correlation", "nearest_correlation", None),
    ("metric_spaces", "EuclideanSpace.distances_to", "distances_to", None),
    ("metric_spaces", "_IterativeNormSpace.distances_to", "distances_to", None),
    ("metric_spaces", "WassersteinSpace.distances_to", "distances_to", None),
    ("metric_spaces", "CorrelationSpace.distances_to", "distances_to", None),
    ("simulation", "run_cell", "run_cell", None),
    ("simulation", "_run_trial", "trial", None),
    ("simulation", "mspe_profile", "mspe_profile", None),
    ("simulation", "tune_lambda", "tune_lambda", None),
    ("simulation", "aggregate", "aggregate", None),
    *[("simulation", f, "datagen", None) for f in _DATAGEN],
    ("dataio", "read_dataset", "read_dataset", _rows_read),
    ("dataio", "read_covariates", "read_covariates", None),
    ("dataio", "load_sim_configs", "load_sim_configs", None),
    ("dataio", "write_predictions", "write_predictions", None),
    ("dataio", "write_results_csv", "write_results", None),
    ("dataio", "write_profile_csv", "write_results", None),
    ("dataio", "write_diagnostics_csv", "write_other", None),
    ("dataio", "write_manifest", "write_other", None),
    ("diagnostics", "denoising_report_for", "denoising_report_for", None),
    ("diagnostics", "weight_stability_check", "weight_stability_check", None),
    ("diagnostics", "bias_term", "bias_term", None),
    ("diagnostics", "snr_reciprocal", "snr_reciprocal", None),
    ("verification", "run_suite", "run_suite", _instances),
]

LAYERS = ("cli", "regression", "linalg", "metric_spaces", "simulation", "dataio", "diagnostics", "verification")
_READS = ("read_dataset", "read_covariates", "load_sim_configs")
_WRITES = ("write_predictions", "write_results_csv", "write_profile_csv", "write_diagnostics_csv", "write_manifest")


class Tracer:
    """Records spans of one thread; ``run`` tags the spans of one pass."""

    def __init__(self):
        self.spans: list = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.run = 0
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    def _enter(self):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, start, count):
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.run, name, start, time.perf_counter(), count)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start, 0)

    def _wrapper(self, fn, layer: str, name: str, counter, attr: str):
        dynamic = "{kind}" in name
        reads, writes = attr in _READS, attr in _WRITES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = getattr(args[0], "kind", "unknown") if dynamic else ""
            label = f"{layer}.{name.format(kind=kind)}"
            sid, parent = self._enter()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(sid, parent, label, start, 0)
            # Counting must never break the traced program, even if a
            # signature changes; a count that cannot be taken stays 0.
            try:
                if counter is not None:
                    self.spans[sid] = self.spans[sid][:6] + (counter(args, out),)
                if reads:
                    self.bytes_read += os.path.getsize(args[0])
                elif writes:
                    # write_manifest returns the path it wrote; the others take it.
                    self.bytes_written += os.path.getsize(out if out is not None else args[0])
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                pass
            return out

        return wrapper

    def install(self, package: str = "frechet_svt") -> None:
        """Wrap every target wherever the package binds it.

        A target the program no longer has is listed in ``missing`` and
        reports zero calls.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        self.missing = []
        for layer, attr, name, counter in TARGETS:
            mod = importlib.import_module(f"{package}.{layer}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(meth) if owner is not None else None
            if orig is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapped = self._wrapper(orig, layer, name, counter, meth)
            if owner_name:
                self._patched.append((owner, meth, orig))
                setattr(owner, meth, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, run, name, start, end, count in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run, "name": name,
                                     "start": start, "end": end, "count": count}) + "\n")


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for q in (90.0, 99.0, 99.9):
        if n * (1 - q / 100) >= 10:
            best = q
    return best


def summarize(spans: list) -> dict:
    """Per span name: calls, self time, inclusive time, durations, count."""
    children: dict = {}
    for s in spans:
        children[s[1]] = children.get(s[1], 0.0) + (s[5] - s[4])
    by_id = {s[0]: s for s in spans}
    stats: dict = {}
    for sid, parent, _run, name, start, end, count in spans:
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "durations": [], "count": 0})
        dur = end - start
        st["calls"] += 1
        st["self_s"] += dur - children.get(sid, 0.0)
        st["durations"].append(dur)
        st["count"] += count
        # Inclusive time counts only the outermost span of a name.
        p = parent
        while p != -1 and by_id[p][3] != name:
            p = by_id[p][1]
        if p == -1:
            st["incl_s"] += dur
    return stats


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def outside_time(spans: list, wall: float) -> float:
    """Part of the pass wall time covered by no span."""
    return wall - sum(s[5] - s[4] for s in spans if s[1] == -1)


# Span names reported as per-layer metrics even when a workload never calls
# them (then their counts and times are zero).
FUNCTIONS = [
    "regression.covariate_stats", "regression.thresholded_precision", "regression.weight_matrix",
    "regression.predict_many", "regression.fit", "linalg.compute_svd", "linalg.pseudoinverse",
    "metric_spaces.wasserstein.frechet_mean_many", "metric_spaces.l1.frechet_mean_many",
    "metric_spaces.linf.frechet_mean_many", "metric_spaces.correlation.frechet_mean_many",
    "metric_spaces.isotonic_project", "metric_spaces.nearest_correlation", "metric_spaces.distances_to",
    "simulation.run_cell", "simulation.trial", "simulation.mspe_profile", "simulation.tune_lambda",
    "simulation.aggregate", "simulation.datagen", "dataio.read_dataset", "dataio.read_covariates",
    "dataio.write_predictions", "dataio.write_results", "cli.simulate", "cli.fit-predict",
    "cli.diagnose", "cli.verify-lemmas", "diagnostics.denoising_report_for",
    "diagnostics.weight_stability_check", "diagnostics.bias_term", "diagnostics.snr_reciprocal",
    "verification.run_suite",
]
COUNT_SUFFIX = {
    "regression.weight_matrix": "bytes_computed",
    "metric_spaces.wasserstein.frechet_mean_many": "queries",
    "metric_spaces.l1.frechet_mean_many": "queries",
    "metric_spaces.linf.frechet_mean_many": "queries",
    "metric_spaces.correlation.frechet_mean_many": "queries",
    "dataio.read_dataset": "rows",
    "verification.run_suite": "instances",
}


def per_layer_metrics(spans, wall, *, import_s, overhead_s, pool_wall, workers,
                      bytes_read, bytes_written, max_rel_err) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    stats = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "durations": [], "count": 0}
    out: dict = {}
    for name in sorted(set(FUNCTIONS) | set(stats)):
        st = stats.get(name, empty)
        durations = np.array(st["durations"]) * 1e3
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.s"] = st["self_s"]
        out[f"{name}.p50_ms"] = float(np.percentile(durations, 50)) if durations.size else 0.0
        q = tail_percentile(durations.size)
        out[f"{name}.tail_ms"] = float(np.percentile(durations, q)) if durations.size else 0.0
        if name in COUNT_SUFFIX:
            out[f"{name}.{COUNT_SUFFIX[name]}"] = st["count"]

    by_id = {s[0]: s for s in spans}
    pava = sum(1 for s in spans if s[3] == "metric_spaces.isotonic_project" and s[1] != -1
               and by_id[s[1]][3] == "metric_spaces.wasserstein.frechet_mean_many")
    queries = out["metric_spaces.wasserstein.frechet_mean_many.queries"]
    out["metric_spaces.pava_hit_ratio"] = pava / queries if queries else 0.0
    trials = out["simulation.trial.calls"]
    out["simulation.mspe_profile.calls_per_trial"] = out["simulation.mspe_profile.calls"] / trials if trials else 0.0
    busy = sum(stats.get("simulation.trial", empty)["durations"])
    out["simulation.pool.efficiency"] = busy / (workers * pool_wall) if trials else 0.0
    out["dataio.bytes_read"] = bytes_read
    out["dataio.bytes_written"] = bytes_written
    out["cli.import_s"] = import_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st["self_s"] for n, st in stats.items() if layer_of(n) == layer)
    out["trace.wall_s"] = wall
    out["trace.outside_s"] = outside_time(spans, wall)
    out["trace.overhead_s"] = overhead_s
    out["check.max_rel_err"] = max_rel_err
    return out


def _predictions(workload: str, stats: dict, metrics: dict, wall: float, ops: int) -> list:
    """(statement, measured value, holds) for the workload's layer-share prediction."""
    def incl(name):
        return stats.get(name, {"incl_s": 0.0})["incl_s"]

    if workload == "desk-wasserstein":
        share = incl("simulation.mspe_profile") / wall
        return [("simulation.mspe_profile takes >= 80% of the traced wall time", share, share >= 0.80)]
    if workload == "linear-norms":
        share = (incl("metric_spaces.l1.frechet_mean_many") + incl("metric_spaces.linf.frechet_mean_many")) / wall
        return [("l1 + linf frechet_mean_many take >= 90% of the traced wall time", share, share >= 0.90)]
    # Each CLI call is a fresh process in the end-to-end run, so add its import.
    imports = ops * metrics["cli.import_s"]
    total = wall + imports
    io_share = (metrics["dataio.self_s"] + imports) / total
    others = {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS if layer != "dataio"}
    top = max(others, key=others.get)
    return [(f"dataio + import is the largest share (next: {top} {others[top]:.3f}) "
             f"of the wall time with {ops} imports added", io_share, io_share > others[top])]


def trace_report(workload, seed, spans, wall, untraced_wall, metrics, ops, missing=()) -> str:
    """Each layer's share of the traced wall time, and the workload's prediction."""
    stats = summarize(spans)
    lines = [
        f"trace report: {workload}, seed {seed}, traced pass with the median wall time (workers=1)",
        f"  traced wall {wall:.4f} s, untraced wall {untraced_wall:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s",
        f"  {'layer':<16}{'self s':>10}{'share':>8}",
    ]
    total = 0.0
    for layer in LAYERS:
        v = metrics[f"{layer}.self_s"]
        total += v
        lines.append(f"  {layer:<16}{v:10.4f}{v / wall:8.3f}")
    outside = metrics["trace.outside_s"]
    lines.append(f"  {'outside spans':<16}{outside:10.4f}{outside / wall:8.3f}")
    lines.append(f"  layer self times + outside = {total + outside:.6f} s; traced wall = {wall:.6f} s")
    lines.append(f"  {'span':<46}{'calls':>8}{'self s':>10}{'incl s':>10}{'p50 ms':>10}")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<46}{st['calls']:8d}{st['self_s']:10.4f}{st['incl_s']:10.4f}"
                     f"{metrics[name + '.p50_ms']:10.3f}")
    if missing:
        lines.append(f"  not traced (absent from the program): {', '.join(missing)}")
    for statement, value, holds in _predictions(workload, stats, metrics, wall, ops):
        lines.append(f"  prediction: {statement}: measured {value:.3f} -> {'holds' if holds else 'REFUTED'}")
    return "\n".join(lines)
