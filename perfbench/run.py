#!/usr/bin/env python3
"""Benchmark of the frechet-svt command line program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-wasserstein --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20            # every workload, one table
    python3 perfbench/run.py --workload cli-files --seconds 5 --negative-control

One benchmark process runs a closed loop: each CLI call (``python -m
frechet_svt ...``, from the checkout's ``src``) starts after the previous
one has ended. A pass is the workload's fixed list of calls; passes repeat
on the same generated inputs until ``--seconds`` have elapsed, and the
end-to-end metrics are medians over passes. Every process runs with one
BLAS/OpenMP thread. Each call's CPU time and peak RSS come from ``wait4``
on that call's own process tree, so no earlier call's peak carries over.
A host speed probe runs before every call, and the time metrics are scaled
to a host that runs the probe in ``PROBE_REFERENCE_S`` (see ``probe``).

``--trace 1`` runs the same calls in this process through ``cli.main``
with one worker, alternating untraced and traced passes, and reports the
per-layer metrics of the traced pass with the median wall time.

Outputs are checked after every pass; a non-zero exit or a failed check
counts as a failed operation. The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with the environment block, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREADS_ENV = "FRECHET_SVT_THREADS"
SETUP_REPEATS = 7

# Host speed probe: a fresh interpreter that imports numpy, as every CLI call
# does. On the shared 2-vCPU machine the benchmark was tuned on, the speed of
# interpreter and numpy code alike drifted by 20-40% over tens of seconds, so
# the raw pass time of the same inputs spread by up to 26% of its median
# between runs. Each time metric is multiplied by PROBE_REFERENCE_S / (mean
# probe time of the pass): the time the pass would take on a host that runs
# the probe in PROBE_REFERENCE_S, about the probe's time on that machine when
# it is quiet. Raw times and probe times stay in perfbench/out/. (A probe that
# also ran 0.1 s of numpy and interpreter work tracked no better and cost
# cli-files a pass per run.)
PROBE_CODE = "import numpy"
PROBE_REFERENCE_S = 0.2

# BLAS threads must be pinned before numpy is first imported.
os.environ.update(BLAS_PIN)
sys.path.insert(0, str(HERE))

from checks import check_op, compare, tolerance_class  # noqa: E402
from tracing import Tracer, per_layer_metrics, trace_report  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env[THREADS_ENV] = str(threads)
    return env


def run_child(argv, env, log: Path) -> tuple:
    """Run one process to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "frechet_svt", *args]


def probe(env, copies: int, log: Path) -> float:
    """Mean wall time of ``copies`` probe processes started together.

    A workload with several workers probes with as many processes, so the
    probe loads the same cores that the workload's calls use.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        procs = {}
        for _ in range(copies):
            proc = subprocess.Popen([sys.executable, "-c", PROBE_CODE], env=env, cwd=ROOT,
                                    stdout=fh, stderr=subprocess.STDOUT)
            procs[proc.pid] = proc
        walls = []
        for _ in range(copies):
            pid, status = os.waitpid(-1, 0)  # whichever probe ends first
            walls.append(time.perf_counter() - start)
            procs[pid].returncode = os.waitstatus_to_exitcode(status)
    codes = [proc.returncode for proc in procs.values()]
    if any(codes):
        raise SystemExit(f"error: the host speed probe exited {codes}: {log.read_text()}")
    return statistics.fmean(walls)


# --- environment block ----------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "frechet_svt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _openblas() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, threads: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": usable_cores(),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_PIN,
        THREADS_ENV: threads,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas": _openblas(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --- output checks shared by both modes ----------------------------------

def _outputs(out: Path) -> dict:
    # The manifest records the output path, which differs between passes.
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.txt"}


def corrupt(op) -> None:
    """Negative control: damage the first output of a pass so checks must fail."""
    if op.name == "simulate":
        path = op.out / "results.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[7] = "nan"  # the mspe column
        lines[1] = ",".join(cells)
    else:
        path = op.out / "predictions.csv"
        lines = path.read_text().splitlines()
        row = 3 if lines[0].startswith("#") else 2  # first row after header and grid
        cells = lines[row].split(",")
        cells[0], cells[-1] = cells[-1], cells[0]  # a decreasing quantile function
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class Checker:
    """Counts operations and failures; compares repeated outputs and references."""

    def __init__(self, reference: dict | None, tolerances: dict):
        self.reference = reference
        self.tolerances = tolerances
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.max_rel_err = 0.0
        self.values: dict = {}
        self._first: dict = {}

    def op_done(self, op, returncode: int) -> None:
        self.attempted += 1
        first = self._first.get(op.name)
        if returncode == 0 and first is not None and op.out.is_dir() and _outputs(op.out) == first[0]:
            return  # same inputs, byte-identical outputs: same verdict as the first pass
        errors, values = check_op(op, returncode)
        if not errors and first is not None:
            err = compare(values, first[1])
            self.max_rel_err = max(self.max_rel_err, err)
            errors.append(f"{op.name}: outputs differ from the first pass (max rel err {err:.3e})")
        elif not errors and self.reference is not None:
            ref = self.reference.get(op.name)
            err = compare(values, ref) if ref is not None else float("inf")
            self.max_rel_err = max(self.max_rel_err, err)
            tol = self.tolerances[tolerance_class(op)]
            if err > tol:
                errors.append(f"{op.name}: differs from the reference by {err:.3e} (tolerance {tol:g})")
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        else:
            self._first[op.name] = (_outputs(op.out), values)
            self.values[op.name] = values


def load_reference(workload: str, seed: int) -> tuple:
    data = json.loads(REFERENCE.read_text())
    ref = data["workloads"].get(workload) if seed == DEFAULT_SEED else None
    return ref, data["tolerances"]


# --- untraced run: fresh processes ---------------------------------------

def measure_setup(env, log: Path) -> tuple:
    """Raw and probe-scaled wall times of cold ``--version`` calls.

    The first call compiles bytecode and is not counted. Each call is scaled
    by the probe run just before it.
    """
    walls, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        probe_s = probe(env, 1, log)
        code, wall, _, _ = run_child(cli_argv("--version"), env, log)
        if code != 0:
            raise SystemExit(f"error: `python -m frechet_svt --version` exited {code}: {log.read_text()}")
        if k:
            walls.append(wall)
            scaled.append(wall * PROBE_REFERENCE_S / probe_s)
    return walls, scaled


def check_import_location(env, log: Path) -> None:
    code, _, _, _ = run_child([sys.executable, "-c", "import frechet_svt; print(frechet_svt.__file__)"], env, log)
    where = Path(log.read_text().strip().splitlines()[-1]).resolve() if code == 0 else None
    if where is None or SRC.resolve() not in where.parents:
        raise SystemExit(f"error: frechet_svt does not import from {SRC}: {log.read_text()}")


def run_untraced(args, wl, threads: int, work: Path, checker) -> tuple:
    env = child_env(threads)
    log = work / "child.log"
    check_import_location(env, log)
    setup_raw, setup = measure_setup(env, log)
    inputs = work / "inputs"
    inputs.mkdir()
    ops_for = wl.prepare(args.seed, inputs)

    # A pass starts only if it should end within --seconds, judged by the
    # previous pass, so a run lasts about --seconds plus its set-up.
    passes, last = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        pass_dir = work / f"pass{len(passes)}"
        ops = ops_for(pass_dir)
        runs, probes = [], []
        for op in ops:
            op.out.parent.mkdir(parents=True, exist_ok=True)
            probes.append(probe(env, threads, log))
            runs.append(run_child(cli_argv(*op.argv), env, pass_dir / f"{op.name}.log"))
        probes.append(probe(env, threads, log))  # brackets the last call too
        for i, (op, run) in enumerate(zip(ops, runs)):
            if args.negative_control and i == 0 and run[0] == 0:
                corrupt(op)
            checker.op_done(op, run[0])
        raw_wall = sum(r[1] for r in runs)
        scale = PROBE_REFERENCE_S / statistics.fmean(probes)
        passes.append({
            "wall_s": raw_wall * scale,
            "cpu_s": sum(r[2] for r in runs) * scale,
            "peak_rss_mb": max(r[3] for r in runs),
            "units_per_s": sum(op.items for op in ops) / (raw_wall * scale),
            "raw_wall_s": raw_wall,
            "probe_s": probes,
            "ops": {op.name: {"code": r[0], "wall_s": r[1], "cpu_s": r[2], "rss_mb": r[3]} for op, r in zip(ops, runs)},
        })
        shutil.rmtree(pass_dir)
        last = time.perf_counter() - began

    metrics = {k: statistics.median(p[k] for p in passes) for k in ("wall_s", "units_per_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    return metrics, {"passes": passes, "setup_walls_s": setup_raw, "setup_scaled_s": setup}


# --- traced run: in process ----------------------------------------------

def _call(cli, op, checker_errors: list) -> int:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        checker_errors.append(f"{op.name}: {traceback.format_exc()}")
        return 1
    if code:
        checker_errors.append(f"{op.name}: {sink.getvalue()[-500:]}")
    return code


def _inprocess_pass(cli, ops, workers: int, checker, tracer=None) -> float:
    os.environ[THREADS_ENV] = str(workers)
    wall = 0.0
    for op in ops:
        op.out.parent.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        if tracer is None:
            code = _call(cli, op, checker.errors)
        else:
            with tracer.span("cli." + op.argv[0]):
                code = _call(cli, op, checker.errors)
        wall += time.perf_counter() - start
        checker.op_done(op, code)
    return wall


def measure_import(env, log: Path) -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import frechet_svt.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        if run_child([sys.executable, "-c", code], env, log)[0] != 0:
            raise SystemExit(f"error: cannot import frechet_svt.cli: {log.read_text()}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times)


def run_traced(args, wl, threads: int, work: Path, checker) -> tuple:
    import_s = measure_import(child_env(1), work / "child.log")
    sys.path.insert(0, str(SRC))
    import frechet_svt.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: frechet_svt imported from {cli.__file__}, not {SRC}")
    inputs = work / "inputs"
    inputs.mkdir()
    ops_for = wl.prepare(args.seed, inputs)
    n_ops = len(ops_for(work))
    tracer = Tracer()
    untraced, traced, parallel = [], [], []
    start = time.perf_counter()
    k = 0

    def one_pass(workers, traced_by=None):
        nonlocal k
        pass_dir = work / f"pass{k}"
        k += 1
        try:
            return _inprocess_pass(cli, ops_for(pass_dir), workers, checker, traced_by)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)

    # The first pass in a process runs slower (allocator and library warm-up),
    # so it is checked but not timed.
    one_pass(1)
    while not traced or time.perf_counter() - start < args.seconds:
        # Alternate which of the pair runs first, so drift cancels in the overhead.
        for traced_turn in (True, False) if len(traced) % 2 == 0 else (False, True):
            if not traced_turn:
                untraced.append(one_pass(1))
                continue
            tracer.run = k
            tracer.install()
            try:
                traced.append((tracer.run, one_pass(1, tracer)))
            finally:
                tracer.restore()
        if threads > 1 and not parallel:
            parallel.append(one_pass(threads))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    run_id, wall = sorted(traced, key=lambda t: t[1])[(len(traced) - 1) // 2]
    spans = [s for s in tracer.spans if s[2] == run_id]
    serial = statistics.median(untraced)
    metrics = per_layer_metrics(
        spans, wall,
        import_s=import_s,
        overhead_s=statistics.median(w for _, w in traced) - serial,
        pool_wall=(statistics.median(parallel) if parallel else serial),
        workers=threads,
        bytes_read=tracer.bytes_read / len(traced),
        bytes_written=tracer.bytes_written / len(traced),
        max_rel_err=checker.max_rel_err,
    )
    report = trace_report(wl.name, args.seed, spans, wall, serial, metrics, ops=n_ops, missing=tracer.missing)
    (OUT / f"trace-{wl.name}-seed{args.seed}.txt").write_text(report)
    detail = {"untraced_walls_s": untraced, "traced_walls_s": [w for _, w in traced], "parallel_walls_s": parallel}
    return metrics, detail, report


# --- entry points ---------------------------------------------------------

def _declared(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    if not (SRC / "frechet_svt" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'frechet_svt'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    threads = wl.threads or usable_cores()
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker(*load_reference(wl.name, args.seed))
    report = ""
    try:
        if args.trace:
            metrics, detail, report = run_traced(args, wl, threads, work, checker)
        else:
            metrics, detail = run_untraced(args, wl, threads, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared(args.trace)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "environment": environment(wl.name, args.seed, threads),
        "trace": args.trace,
        "workers": 1 if args.trace else threads,
        "seconds": args.seconds,
        "unit_of_units_per_s": wl.unit,
        "failed_fraction": checker.failed / checker.attempted,
        "errors": checker.errors,
        "metrics": metrics,
        "detail": detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    if report:
        print(report)
    for m in declared:
        print(f"{m['name']:>48} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"{'failed_fraction':>48} {checker.failed}/{checker.attempted} = {record['failed_fraction']:.4g}")
    for err in checker.errors[:10]:
        print(f"check failed: {err.strip()}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh benchmark process, then one table."""
    rows, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.negative_control:
            cmd.append("--negative-control")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
        ok = ok and rows[name]["correct"]
    for name, res in rows.items():
        frac = res["failed"] / res["attempted"]
        print(f"== {name}: correct={res['correct']} failed_fraction={res['failed']}/{res['attempted']} = {frac:.4g}")
        for metric, v in res["metrics"].items():
            print(f"{metric:>48} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"correct": ok, "workloads": rows}))
    return 0


def record_reference(args) -> int:
    """Rewrite the reference values from one pass at the default seed."""
    data = json.loads(REFERENCE.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    args.seed, args.seconds, args.negative_control = DEFAULT_SEED, 0, False
    for name in names:
        wl = WORKLOADS[name]
        work = WORK / f"reference-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        checker = Checker(None, {})
        try:
            run_untraced(args, wl, wl.threads or usable_cores(), work, checker)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if checker.failed:
            print(f"{name}: checks failed, reference not written: {checker.errors}", file=sys.stderr)
            return 1
        data["workloads"][name] = checker.values
    data["seed"] = DEFAULT_SEED
    data["source_sha256"] = _source_digest()
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt the first output of every pass; failed_fraction must rise above 0")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the default seed after an intended numeric change")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_reference:
        return record_reference(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
