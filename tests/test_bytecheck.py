"""The byte-contract checker (``tools/bytecheck.py``): its comparer on hand-made output trees, and its
within-tree run on fake calls; no CLI runs."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"
spec = importlib.util.spec_from_file_location("bytecheck", TOOL)
bytecheck = sys.modules["bytecheck"] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
spec.loader.exec_module(bytecheck)

CASE = "simulate smoke.cfg at 2 workers"
TABLES = {
    "results.csv": b"n,p,estimator,mspe\n30,10,REF,0.41700000000000004\n",
    "profile.csv": b"lambda,REF,EIV,SVT\n0.25,1.0,0.95,0.88\n",
}


def manifest(out: Path) -> bytes:
    return f"command = simulate\nversion = 0.1.0\nconfig = smoke.cfg\nout = {out}\nblas_threads = 1\n".encode()


@pytest.fixture
def runs(tmp_path):
    """Two runs that wrote the same tables into different output directories."""
    pair = []
    for side in ("parent", "tree"):
        out = tmp_path / side / "out"
        out.mkdir(parents=True)
        for name, data in TABLES.items():
            (out / name).write_bytes(data)
        (out / "manifest.txt").write_bytes(manifest(out))
        stdout = f"cell smoke: MSPE REF=0.4170\nwrote {out / 'results.csv'} and {out / 'profile.csv'}\n"
        pair.append(bytecheck.Run(side, "python -m frechet_svt simulate --out OUT", 0, stdout, "", out))
    return pair


def test_matching_runs_pass(runs):
    assert bytecheck.compare(CASE, *runs) == []


def test_one_byte_in_profile_fails_naming_the_case_and_the_file(runs):
    path = runs[1].out / "profile.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1  # 0.88 -> 0.89
    path.write_bytes(bytes(data))
    problems = bytecheck.compare(CASE, *runs)
    assert problems == [f"{CASE}: profile.csv differs at line 2: '0.25,1.0,0.95,0.88' against '0.25,1.0,0.95,0.89'"]


def test_a_missing_output_file_fails(runs):
    (runs[1].out / "results.csv").unlink()
    assert bytecheck.compare(CASE, *runs) == [f"{CASE}: results.csv missing from tree"]


def test_manifests_that_differ_only_in_their_out_line_pass(runs):
    a, b = (run.out / "manifest.txt" for run in runs)
    assert a.read_bytes() != b.read_bytes()
    assert bytecheck.compare(CASE, *runs) == []
    b.write_bytes(b.read_bytes().replace(b"blas_threads = 1", b"blas_threads = 2"))
    assert bytecheck.compare(CASE, *runs) == [
        f"{CASE}: manifest.txt differs at line 5: 'blas_threads = 1' against 'blas_threads = 2'"
    ]


def test_stderr_that_differs_only_by_the_out_path_passes(runs):
    for run in runs:
        run.code, run.stderr = 2, f"error: --out {str(run.out)!r} is not a usable directory\n"
    assert bytecheck.compare(CASE, *runs) == []
    runs[1].stderr = runs[1].stderr.replace("usable", "usable ")
    assert bytecheck.compare(CASE, *runs) == [
        f"{CASE}: stderr differs at line 1: \"error: --out 'OUT' is not a usable directory\" "
        f"against \"error: --out 'OUT' is not a usable  directory\""
    ]


def fake_calls(monkeypatch, calls, broken=None, leaky=None):
    """Replace each CLI call by one that writes its case's files and exits as expected; ``broken`` exits 1.

    As the CLI does, a call that exits 2 makes no ``--out``, but ``leaky`` makes it and then exits 2.
    """

    def run_case(case, src, work, out, side):
        calls.append(case.name)
        if case.exit != 2 or case.name == leaky:
            out.mkdir(parents=True)
        for name in case.files:
            (out / name).write_text("".join(f"{line}\n" for line in case.manifest_has))
        code = 1 if case.name == broken else case.exit
        return bytecheck.Run(side, bytecheck._show(case), code, "", "", out)

    monkeypatch.setattr(bytecheck, "check_tree", lambda src, work: None)
    monkeypatch.setattr(bytecheck, "run_case", run_case)


def test_within_a_tree_every_case_runs_once(tmp_path, monkeypatch, capsys):
    calls = []
    fake_calls(monkeypatch, calls)
    assert bytecheck.check_within(tmp_path / "inputs", tmp_path / "outs") == []
    assert sorted(calls) == sorted(bytecheck.CASES)  # each name exactly once
    assert "DIFF" not in capsys.readouterr().out


@pytest.mark.parametrize("broken", ["verify-lemmas --inject-fault", "simulate blas-cell.cfg, OPENBLAS_NUM_THREADS = 1"])
def test_a_call_that_misses_its_exit_code_fails_the_run_naming_its_case(tmp_path, monkeypatch, capsys, broken):
    # The first case runs alone, the second as one side of an invariance pair.
    fake_calls(monkeypatch, [], broken=broken)
    failed = bytecheck.check_within(tmp_path / "inputs", tmp_path / "outs")
    assert len(failed) == 1 and broken in failed[0]
    expected = bytecheck.CASES[broken].exit
    assert f"{broken}: exit code 1, expected {expected} ({broken})" in capsys.readouterr().out


@pytest.mark.parametrize("leaky", ["diagnose on a --noisy of another shape", "simulate, FRECHET_SVT_THREADS=abc"])
def test_an_exit_2_call_that_makes_its_out_fails_the_run_naming_its_case(tmp_path, monkeypatch, capsys, leaky):
    fake_calls(monkeypatch, [], leaky=leaky)
    failed = bytecheck.check_within(tmp_path / "inputs", tmp_path / "outs")
    assert failed == [leaky]
    assert f"{leaky}: an exit-2 case made its --out ({leaky})" in capsys.readouterr().out


def test_the_tool_imports_only_the_standard_library_and_numpy():
    tree = ast.parse(TOOL.read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in names} - set(sys.stdlib_module_names) == {"numpy"}
