"""Check the byte contract: runs that should write the same bytes do.

    python tools/bytecheck.py          # within this tree: every case, and the invariance pairs
    python tools/bytecheck.py REV      # this tree against a local git revision, call by call

Every call is ``python -m frechet_svt ...`` in a fresh process, with
``PYTHONPATH`` set to one tree's ``src``; before its first call the tool
checks that this tree's package is the one imported, so an installed copy
cannot answer for it. All calls of one run read the same inputs: CSVs
generated here with numpy and the campaign configs (``configs/`` and the
``*.cfg`` files next to this script), copied into one temporary
directory that every call runs in.

Two runs match when they exit with the same code, print the same stdout
and stderr once each run's ``--out`` path is masked, and write the same
set of files with the same bytes, ``manifest.txt`` apart from its
``out`` line (and, within one tree, the worker lines a worker-count
change must change). A mismatch names the case, the file and the calls.
Each call of this tree must also end as its case expects: exit code,
no traceback, output files and manifest lines.

Without a revision, the tool runs the pairs of ``INVARIANCES``, then
each case no pair ran, so every case of ``CASES`` is called once. With
one, it extracts that revision's ``src`` by ``git archive`` into a
temporary directory, runs every case of ``CASES`` in both trees and
compares them. It needs no network and leaves no git state, file or
process behind. Exit status: 0 when everything matches, 1 otherwise, 2
for bad arguments, a revision git does not know included. The tool
imports only the standard library and numpy, never the package it
checks.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THREADS = "FRECHET_SVT_THREADS"
BLAS = "OPENBLAS_NUM_THREADS"
CONFIGS = [ROOT / "configs" / "smoke.cfg", ROOT / "configs" / "desk_scale.cfg", *sorted(Path(__file__).parent.glob("*.cfg"))]
CALL_TIMEOUT_S = 600

# python -c, not python -: a spawn or forkserver worker re-runs the parent's
# main module, and a script read from stdin has no file.
START_METHOD_MAIN = """\
import multiprocessing, sys
from frechet_svt.cli import main
multiprocessing.set_start_method(sys.argv[1], force=True)
sys.exit(main(sys.argv[2:]))
"""


@dataclass(frozen=True)
class Case:
    """One call: ``argv`` after ``python -m frechet_svt``, ``{out}`` standing for its output directory."""

    name: str
    argv: tuple
    env: dict = field(default_factory=dict)  # a value of None removes the variable
    exit: int = 0
    files: tuple = ()  # output files the call must write
    manifest_has: tuple = ()  # lines its manifest must hold
    start_method: str | None = None  # run main() under this multiprocessing start method


SIMULATE = ("manifest.txt", "results.csv", "profile.csv")
PREDICT = ("manifest.txt", "predictions.csv")


def _simulate(config, workers, name=None, env=None, start_method=None, **kw) -> Case:
    env = {THREADS: str(workers), **(env or {})}
    how = f" under {start_method}" if start_method else ""
    name = name or f"simulate {config} at {workers} worker{'s' * (workers > 1)}{how}"
    argv = ("simulate", "--config", config, "--out", "{out}")
    return Case(name, argv, env, files=SIMULATE, start_method=start_method, **kw)


def _fit_predict(kind, train, lam, holdout) -> Case:
    argv = ("fit-predict", "--train", train, "--queries", "queries.csv", "--kind", kind, "--lambda", lam)
    argv += ("--holdout", holdout) if lam == "auto" else ()
    return Case(f"fit-predict {kind} --lambda {lam}", (*argv, "--out", "{out}"), files=PREDICT)


def _fails(name, *argv, exit=2, env=None) -> Case:
    return Case(name, (*argv, "--out", "{out}"), env or {}, exit=exit)


FIT_DATA = {kind: ("v_train.csv", "v_holdout.csv") for kind in ("euclidean", "l1", "linf")}
FIT_DATA.update(wasserstein=("w_train.csv", "w_holdout.csv"), correlation=("c_train.csv", "c_holdout.csv"))
FIT = ("--queries", "queries.csv", "--kind", "euclidean")
DRESSED = "fit-predict euclidean --lambda 0.1 on a file the csv fallback reads"

CASES = {
    case.name: case
    for case in [
        *(_fit_predict(kind, train, lam, holdout) for kind, (train, holdout) in FIT_DATA.items() for lam in ("0.1", "auto")),
        *(
            Case(
                f"diagnose {kind}",
                ("diagnose", "--train", train, "--noisy", "noisy.csv", "--kind", kind, "--lambda", "0.1", "--x=0.1,-0.2,0.3", "--out", "{out}"),
                files=("manifest.txt", "diagnostics.csv"),
            )
            for kind, train in [("euclidean", "v_train.csv"), ("wasserstein", "w_train.csv")]
        ),
        *(
            Case(f"verify-lemmas --seed {seed}", ("verify-lemmas", "--seed", seed, "--instances", "100", "--out", "{out}"), files=("verify_report.txt",))
            for seed in ("0", "7")
        ),
        # more instances put more rank-deficient designs, whose probes truncate alike, under the contract
        Case("verify-lemmas --seed 11 --instances 300", ("verify-lemmas", "--seed", "11", "--instances", "300", "--out", "{out}"), files=("verify_report.txt",)),
        Case(
            "verify-lemmas --inject-fault",
            ("verify-lemmas", "--instances", "20", "--inject-fault", "--out", "{out}"),
            exit=4,
            files=("verify_report.txt",),
        ),
        *(_simulate(config, workers) for config in ("smoke.cfg", "euclidean.cfg", "linear-norms.cfg", "desk_scale.cfg") for workers in (1, 2)),
        *(_simulate(config, 2, start_method=method) for config in ("smoke.cfg", "linear-norms.cfg") for method in ("spawn", "forkserver")),
        *(
            _simulate("blas-cell.cfg", 1, name=f"simulate blas-cell.cfg, {BLAS} {how}", env={BLAS: value}, manifest_has=("blas_threads = 1",))
            for how, value in (("unset", None), ("= 1", "1"))
        ),
        Case(DRESSED, ("fit-predict", "--train", "v_train_dressed.csv", *FIT, "--lambda", "0.1", "--out", "{out}"), files=PREDICT),
        _fails("fit-predict --lambda -1", "fit-predict", "--train", "v_train.csv", *FIT, "--lambda", "-1"),
        _fails("fit-predict --holdout with a fixed --lambda", "fit-predict", "--train", "v_train.csv", *FIT, "--holdout", "v_holdout.csv"),
        _fails("fit-predict on a bad cell", "fit-predict", "--train", "bad.csv", *FIT),
        _fails("fit-predict on a missing file", "fit-predict", "--train", "missing.csv", *FIT),
        _fails("fit-predict on a short --train row", "fit-predict", "--train", "short.csv", *FIT),
        _fails("fit-predict on a short --queries row", "fit-predict", "--train", "v_train.csv", "--queries", "short.csv", "--kind", "euclidean"),
        _fails("fit-predict on a short --holdout row", "fit-predict", "--train", "v_train.csv", *FIT, "--lambda", "auto", "--holdout", "short.csv"),
        _fails("fit-predict --kind unknown", "fit-predict", "--train", "v_train.csv", "--queries", "queries.csv", "--kind", "unknown"),
        _fails("fit-predict on overflowing responses", "fit-predict", "--train", "huge_train.csv", *FIT, exit=3),
        _fails("simulate --seed -3", "simulate", "--config", "smoke.cfg", "--seed", "-3"),
        *(_fails(f"simulate, {THREADS}={raw}", "simulate", "--config", "smoke.cfg", env={THREADS: raw}) for raw in ("abc", "0", "-3")),
        Case("--help", ("--help",)),
        Case("--version", ("--version",)),
        *(Case(f"{command} --help", (command, "--help")) for command in ("simulate", "fit-predict", "diagnose", "verify-lemmas")),
    ]
}

# (the run, the run it must match, manifest keys the difference may change)
WORKER_KEYS = ("out", "workers_env", "workers")
INVARIANCES = [
    *(
        (f"simulate {config} at 2 workers", f"simulate {config} at 1 worker", WORKER_KEYS)
        for config in ("smoke.cfg", "euclidean.cfg", "linear-norms.cfg")
    ),
    *(
        (f"simulate {config} at 2 workers under {method}", f"simulate {config} at 1 worker", WORKER_KEYS)
        for config in ("smoke.cfg", "linear-norms.cfg")
        for method in ("spawn", "forkserver")
    ),
    (f"simulate blas-cell.cfg, {BLAS} unset", f"simulate blas-cell.cfg, {BLAS} = 1", ("out",)),
    (DRESSED, "fit-predict euclidean --lambda 0.1", ("out", "train")),
]


def write_inputs(work: Path) -> None:
    """The campaign configs and the generated CSVs every call reads, all in ``work``."""
    for config in CONFIGS:
        shutil.copyfile(config, work / config.name)
    rng = np.random.default_rng(20)

    def write(name, x, names=(), y=None, grid=None):
        with open(work / name, "w") as fh:
            fh.write(",".join([*(f"x{i}" for i in range(1, x.shape[1] + 1)), *names]) + "\n")
            if grid is not None:
                fh.write("," * x.shape[1] + ",".join(map(repr, grid.tolist())) + "\n")
            rows = x if y is None else np.column_stack([x, y.reshape(len(x), -1)])
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())

    beta = np.array([1.0, -0.5, 0.25])
    x = rng.standard_normal((60, 3))
    xs = {"train": x[:40], "holdout": x[40:]}
    write("queries.csv", rng.standard_normal((7, 3)))
    for part, xp in xs.items():
        write(f"v_{part}.csv", xp, ["y1", "y2"], xp @ np.outer(beta, [1.0, 0.5]) + 0.1 * rng.standard_normal((len(xp), 2)))
    write("noisy.csv", xs["train"] + 0.01 * rng.standard_normal((40, 3)))

    levels = (np.arange(21) + 0.5) / 21
    base = np.linspace(-2.0, 2.0, 21)
    for part, xp in xs.items():
        quantiles = (xp @ beta)[:, None] + np.exp(0.3 * xp[:, :1]) * base
        write(f"w_{part}.csv", xp, [f"q{j}" for j in range(1, 22)], quantiles, grid=levels)

    for part, xp in xs.items():
        a = rng.standard_normal((len(xp), 3, 6)) + (xp @ beta)[:, None, None]
        cov = a @ a.transpose(0, 2, 1)
        d = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        corr = cov / (d[:, :, None] * d[:, None, :])
        corr[:, np.arange(3), np.arange(3)] = 1.0
        write(f"c_{part}.csv", xp, [f"c{i}{j}" for i in range(1, 4) for j in range(1, 4)], corr)

    # Finite responses whose blends overflow: exit 3.
    write("huge_train.csv", x[:20], ["y1"], np.where(rng.random(20) < 0.5, -1e308, 1e308))
    lines = (work / "v_train.csv").read_text().splitlines()
    # The same rows in a dress numpy's C reader refuses, so the csv fallback reads the body.
    dressed = [*lines[:3], "# a comment line in the body", '"{}",{}'.format(*lines[3].split(",", 1)), *lines[4:]]
    (work / "v_train_dressed.csv").write_text("\n".join(dressed) + "\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",oops"  # row 6: column y2
    (work / "bad.csv").write_text("\n".join(lines) + "\n")
    lines[5] = lines[5].rsplit(",", 1)[0]  # row 6: a cell short
    (work / "short.csv").write_text("\n".join(lines) + "\n")


@dataclass
class Run:
    """One finished call; ``side`` says which tree or case it was, in messages."""

    side: str
    call: str
    code: int
    stdout: str
    stderr: str
    out: Path
    seconds: float = 0.0

    def masked(self, text: str) -> str:
        return text.replace(str(self.out), "OUT")


def _env(src: Path, case: Case | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS}  # a case that runs a pool says how many workers
    env["PYTHONPATH"] = str(src)
    for key, value in (case.env if case else {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _show(case: Case) -> str:
    """The call as a shell line, its output directory written OUT."""
    env = [f"env -u {k}" if v is None else f"{k}={v}" for k, v in case.env.items()]
    entry = ["python", "-c", f"<main under {case.start_method}>"] if case.start_method else ["python", "-m", "frechet_svt"]
    argv = [word.replace("{out}", "OUT") for word in case.argv]
    return " ".join([*env, *entry, shlex.join(argv)])


def check_tree(src: Path, work: Path) -> None:
    """Fail unless a call with ``PYTHONPATH`` set to ``src`` imports the package from ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", "import frechet_svt; print(frechet_svt.__file__)"],
        cwd=work, env=_env(src), capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    found = done.stdout.strip()
    if done.returncode != 0 or Path(found).resolve() != (src / "frechet_svt" / "__init__.py").resolve():
        raise SystemExit(f"bytecheck: PYTHONPATH={src} imports frechet_svt from {found or done.stderr.strip()!r}, not from {src}")


def run_case(case: Case, src: Path, work: Path, out: Path, side: str) -> Run:
    """Run ``case`` on the package in ``src`` from ``work``, writing under ``out``; kill what it leaves on failure."""
    argv = [word.replace("{out}", str(out)) for word in case.argv]
    if case.start_method:
        command = [sys.executable, "-c", START_METHOD_MAIN, case.start_method, *argv]
    else:
        command = [sys.executable, "-m", "frechet_svt", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=work, env=_env(src, case), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CALL_TIMEOUT_S)
    except BaseException:  # a timeout or an interrupt: end the call and its pool workers, then re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return Run(side, _show(case), proc.returncode, stdout, stderr, out, time.perf_counter() - start)


def _first_difference(a: bytes, b: bytes) -> str:
    """Where ``b`` first departs from ``a``: the line number and both lines from a little before that byte."""
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    start = a.rfind(b"\n", 0, at) + 1
    lo = max(start, at - 40)
    show = [("..." if lo > start else "") + text[lo:].split(b"\n")[0][:100].decode(errors="replace") for text in (a, b)]
    line = a.count(b"\n", 0, at) + 1
    return f"differs at line {line}: {show[0]!r} against {show[1]!r}"


def _manifest(data: bytes, keys) -> bytes:
    """``data`` with the value of each ``key = value`` line of ``keys`` masked."""
    lines = [line.split(b" = ", 1) for line in data.split(b"\n")]
    return b"\n".join(b" = ".join([parts[0], b"*"] if parts[0].decode() in keys else parts) for parts in lines)


def compare(name: str, a: Run, b: Run, manifest_keys=("out",)) -> list:
    """Every way ``b`` differs from ``a``, each line naming the case; empty when they match."""
    problems = []
    if a.code != b.code:
        problems.append(f"{name}: exit code {a.code} ({a.side}) against {b.code} ({b.side})")
    for stream in ("stdout", "stderr"):
        texts = [run.masked(getattr(run, stream)).encode() for run in (a, b)]
        if texts[0] != texts[1]:
            problems.append(f"{name}: {stream} {_first_difference(*texts)}")
    files = [{f.name for f in run.out.iterdir() if f.is_file()} if run.out.is_dir() else set() for run in (a, b)]
    for fname in sorted(files[0] | files[1]):
        if fname not in files[1] or fname not in files[0]:
            missing = b if fname not in files[1] else a
            problems.append(f"{name}: {fname} missing from {missing.side}")
            continue
        data = [(run.out / fname).read_bytes() for run in (a, b)]
        if fname == "manifest.txt":
            data = [_manifest(d, manifest_keys) for d in data]
        if data[0] != data[1]:
            problems.append(f"{name}: {fname} {_first_difference(*data)}")
    return problems


def expect(case: Case, run: Run) -> list:
    """Every way ``run`` fails what ``case`` expects of it."""
    problems = []
    if run.code != case.exit:
        tail = (run.stderr.strip().splitlines() or [""])[-1]
        problems.append(f"{case.name}: exit code {run.code}, expected {case.exit} ({run.side}) {tail}".rstrip())
    if "Traceback" in run.stderr:
        problems.append(f"{case.name}: a traceback on stderr ({run.side})")
    problems += [f"{case.name}: {f} not written ({run.side})" for f in case.files if not (run.out / f).is_file()]
    manifest = (run.out / "manifest.txt").read_text().splitlines() if (run.out / "manifest.txt").is_file() else []
    problems += [f"{case.name}: manifest lacks {line!r} ({run.side})" for line in case.manifest_has if line not in manifest]
    return problems


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "-", name).strip("-")


def report(name: str, runs, problems: list) -> bool:
    times = " / ".join(f"{run.seconds:.2f} s" for run in runs)
    verdict = ("same", "DIFF") if len(runs) > 1 else ("ok", "FAIL")
    print(f"{verdict[bool(problems)]}  {name}  ({times})")
    for line in problems:
        print(f"      {line}")
    if problems:
        for run in runs:
            print(f"      call ({run.side}): {run.call}")
    sys.stdout.flush()
    return not problems


def check_within(work: Path, outs: Path) -> list:
    """The invariance pairs, then every other case, each case run once in this tree; the names that fail."""
    src = ROOT / "src"
    check_tree(src, work)
    runs = {}

    def get(name):
        if name not in runs:
            case = CASES[name]
            runs[name] = run_case(case, src, work, outs / _slug(name), name)
        return runs[name]

    failed = []
    for name, reference, keys in INVARIANCES:
        pair, label = [get(reference), get(name)], f"{name} = {reference}"
        problems = [p for n, r in ((reference, pair[0]), (name, pair[1])) for p in expect(CASES[n], r)]
        if not report(label, pair, problems + compare(label, *pair, manifest_keys=keys)):
            failed.append(label)
    for name in [name for name in CASES if name not in runs]:
        run = get(name)
        if not report(name, [run], expect(CASES[name], run)):
            failed.append(name)
    return failed


def check_revision(rev: str, sha: str, work: Path, outs: Path) -> list:
    """Every case in commit ``sha`` (``rev``) and in this tree; the names of the cases that differ or fail."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha, "src"], capture_output=True, check=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # Python >= 3.11.4
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(outs / "rev", **safe)
    sides = [(f"{rev} ({sha})", outs / "rev" / "src", outs / "rev-out"), ("this tree", ROOT / "src", outs / "tree-out")]
    for _, src, _ in sides:
        check_tree(src, work)
    failed = []
    for name, case in CASES.items():
        a, b = (run_case(case, src, work, out / _slug(name), side) for side, src, out in sides)
        if not report(name, (a, b), compare(name, a, b) + expect(case, b)):
            failed.append(name)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="a local git revision to compare this tree against")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if args.rev:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "--short", f"{args.rev}^{{commit}}"], capture_output=True, text=True
        )
        if found.returncode != 0:
            parser.error(f"{args.rev!r} is not a commit of {ROOT}")
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        work, outs = Path(tmp, "inputs"), Path(tmp, "outs")
        work.mkdir()
        write_inputs(work)
        failed = check_revision(args.rev, found.stdout.strip(), work, outs) if args.rev else check_within(work, outs)
    if args.rev:
        what, calls = f"{len(CASES)} cases against {args.rev}", 2 * len(CASES)
    else:
        what, calls = f"{len(CASES)} cases and {len(INVARIANCES)} invariances", len(CASES)
    print(f"bytecheck: {what}, {calls} calls in {time.perf_counter() - start:.1f} s: ", end="")
    print(f"{len(failed)} failed: {'; '.join(failed)}" if failed else "all match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
