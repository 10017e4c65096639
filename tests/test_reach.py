"""Every package function is entered by a command, or is listed here with the reason it is not.

The test runs each one-worker case of ``tools/bytecheck.py``'s ``CASES`` in
process through ``cli.main``, on that tool's generated inputs, plus a few
calls for branches those inputs miss, all under ``sys.setprofile``. It then
lists the functions and methods defined in the package's source (nested
closures aside) that no call entered. Each must be on ``UNREACHED``, so a
route that only tests reach fails here: move it into ``tests/oracles.py``,
delete it, or give a command a reason to call it. An entry of
``UNREACHED`` that a call enters fails too, so the list stays exact.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import frechet_svt
from frechet_svt import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"
spec = importlib.util.spec_from_file_location("bytecheck", TOOL)
bytecheck = sys.modules.setdefault("bytecheck", importlib.util.module_from_spec(spec))
if not hasattr(bytecheck, "CASES"):
    spec.loader.exec_module(bytecheck)

# Functions no command enters, each with the reason it stays.
UNREACHED = {
    "__init__.__getattr__": "the lazy import of a public name (PEP 562); the CLI imports modules directly",
    "__init__.__dir__": "lists the public names for dir(); library only",
    "cli.run": "the process entry; the test calls main in process",
    "linalg.svt": "documented operator that README's weight formula is written with",
    "metric_spaces.nearest_correlation": "documented one-matrix form of the stacked Dykstra projection",
    "simulation.run_cell": "documented one-cell run_campaign; perfbench's tracer wraps it by name",
    "metric_spaces.MetricSpace.check_points": "abstract stub",
    "metric_spaces.MetricSpace.distances_to": "abstract stub",
    "metric_spaces.MetricSpace.project_blends": "abstract stub",
    "metric_spaces._IterativeNormSpace._norm_parts": "abstract stub",
    "regression.raising": "a decorator, applied when its modules load, before any command runs",
    "metric_spaces.ConvergenceError.__init__": "raised when Dykstra's projection hits its iteration cap; tests lower the cap",
    "metric_spaces.InvalidPointError.__reduce__": "pickling hook, for errors sent back from pool workers",
    "metric_spaces.ConvergenceError.__reduce__": "pickling hook, for errors sent back from pool workers",
    "simulation.TrialFailure.__reduce__": "pickling hook, for errors sent back from pool workers",
}


def package_functions() -> dict:
    """``{module.qualname: code}`` of every function and method written in the package's source files.

    Each ``functools`` cache among them is emptied, since a cached function's
    body runs only on a miss, and earlier tests in the process may have filled it.
    """
    modules = [frechet_svt] + [
        importlib.import_module(f"frechet_svt.{info.name}")
        for info in pkgutil.iter_modules(frechet_svt.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    found = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2] if module is not frechet_svt else "__init__"
        members = list(vars(module).values())
        members += [m for cls in members if inspect.isclass(cls) and cls.__module__ == module.__name__ for m in vars(cls).values()]
        for member in members:
            if isinstance(member, property):
                candidates = [member.fget, member.fset, member.fdel]
            elif isinstance(member, cached_property):
                candidates = [member.func]
            else:
                candidates = [getattr(member, "__func__", member)]  # a static or class method's function
                if hasattr(member, "cache_clear"):
                    member.cache_clear()
            for func in candidates:
                func = inspect.unwrap(func)  # through numpy's errstate and functools.cache
                # Dataclass-generated methods have no source file of the package's.
                if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
                    found[f"{short}.{func.__qualname__}"] = func.__code__
    return found


def one_worker_cases() -> list:
    """The cases of ``CASES`` that run in one process, desk-scale campaigns and argparse's exits aside."""
    out = []
    for case in bytecheck.CASES.values():
        workers = case.env.get(bytecheck.THREADS, "")
        if case.start_method or (workers.isdigit() and int(workers) > 1):
            continue
        if "desk_scale.cfg" in case.argv or "--help" in case.argv or "--version" in case.argv:
            continue
        out.append(case)
    return out


CELL = "[campaign]\ntrials = 2\ntest_size = 20\neval_points = 6\nquantile_points = 11\nlambda_points = 4\n\n"
EXTRA_CONFIGS = {
    # More covariates than samples and a widely spread scale noise: negative
    # weights make decreasing blends, which PAVA repairs. The boolean key is
    # read by dataio._parse_bool.
    "branches.cfg": CELL + "[cell:pava]\nn = 10\np = 30\nig_shape = 3\nig_scale = 2\nlaplace_variance_matched = no\n",
    # Responses whose blends overflow: the first trial fails, and simulate exits 3.
    "overflow.cfg": CELL + "[cell:overflow]\nn = 20\np = 6\nsigma_eta = 1e300\n",
}
EXTRA_CALLS = [
    (("simulate", "--config", "branches.cfg"), 0),
    (("simulate", "--config", "overflow.cfg"), 3),
    # A quantile row that decreases is outside the space: exit 2.
    (("fit-predict", "--train", "w_decreasing.csv", "--queries", "queries.csv", "--kind", "wasserstein"), 2),
]


def write_extra_inputs(work: Path) -> None:
    for name, text in EXTRA_CONFIGS.items():
        (work / name).write_text(text)
    lines = (work / "w_train.csv").read_text().splitlines()
    cells = lines[4].split(",")
    lines[4] = ",".join(cells[:3] + cells[3:][::-1])  # data row 3: its quantiles, after the three covariates, reversed
    (work / "w_decreasing.csv").write_text("\n".join(lines) + "\n")


def test_every_package_function_is_entered_or_listed(tmp_path, monkeypatch):
    work = tmp_path / "inputs"
    work.mkdir()
    bytecheck.write_inputs(work)
    write_extra_inputs(work)
    monkeypatch.chdir(work)
    monkeypatch.delenv(bytecheck.THREADS, raising=False)
    functions = package_functions()  # every module loaded before the first call
    calls = [(case.name, case.argv, case.env, case.exit) for case in one_worker_cases()]
    calls += [(" ".join(argv), (*argv, "--out", "{out}"), {bytecheck.THREADS: "1"}, code) for argv, code in EXTRA_CALLS]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(id(frame.f_code))  # package code objects live throughout, so ids cannot repeat

    exits = {}
    for i, (name, argv, env, expected) in enumerate(calls):
        with monkeypatch.context() as m:
            for key, value in env.items():
                if value is None:
                    m.delenv(key, raising=False)
                else:
                    m.setenv(key, value)
            sys.setprofile(profile)
            try:
                code = cli.main([word.replace("{out}", str(tmp_path / f"out{i}")) for word in argv])
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            finally:
                sys.setprofile(None)
        exits[name] = (code, expected)
    assert {name: pair for name, pair in exits.items() if pair[0] != pair[1]} == {}
    assert len(calls) >= 30
    stale = [name for name in UNREACHED if name not in functions]
    assert not stale, f"UNREACHED names no such function: {stale}"
    missed = sorted(name for name, code in functions.items() if id(code) not in entered and name not in UNREACHED)
    assert not missed, f"no command enters these; make them oracles in tests/oracles.py, or delete them: {missed}"
    reached = [name for name in UNREACHED if id(functions[name]) in entered]
    assert not reached, f"a command enters these, so UNREACHED should not list them: {reached}"
