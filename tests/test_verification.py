import numpy as np

from frechet_svt import cli, diagnostics, verification
from frechet_svt.linalg import compute_svd, pinv_perturbation_residual
from frechet_svt.verification import run_suite


def test_each_instance_drawn_once_and_each_matrix_factored_once(monkeypatch):
    # At 100 instances the suite once drew every instance five times
    # (500 draws) and refactored X and Z in every check (4350 SVDs).
    original_svd, original_draw = np.linalg.svd, verification._random_instance
    svds, draws = [], []

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return original_svd(*args, **kwargs)

    def counting_draw(rng):
        draws.append(1)
        return original_draw(rng)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(verification, "_random_instance", counting_draw)
    results = run_suite(seed=1, instances=100)
    assert all(r.passed for r in results)
    assert len(draws) == 100
    assert 0 < len(svds) <= 2400


def test_failing_seed_is_first_worst_instance():
    seed, instances = 3, 40
    results = run_suite(seed=seed, instances=instances, inject_fault=True)
    residuals = []
    for i in range(instances):
        x, z = verification._random_instance(np.random.default_rng([seed, i]))
        scale = 1.0 + np.linalg.norm(compute_svd(x).kept().pinv(), "fro") + np.linalg.norm(
            compute_svd(z).kept().pinv(), "fro"
        )
        residuals.append(float((pinv_perturbation_residual(x, z) + 1e-3) / scale))
    faulty = [r for r in results if r.name == "pseudoinverse perturbation identity"]
    assert len(faulty) == 1 and not faulty[0].passed
    assert faulty[0].worst == max(residuals)
    assert faulty[0].failing_seed == int(np.argmax(residuals))
    others = [r for r in results if r is not faulty[0]]
    assert len(others) == 5
    assert all(r.passed and r.failing_seed is None for r in others)


def test_rowspace_failure_is_a_failure_not_a_traceback(monkeypatch, capsys):
    # No residual is below a negative tolerance, so every query leaves the row space.
    monkeypatch.setattr(diagnostics, "ROWSPACE_RTOL", -1.0)
    results = run_suite(seed=0, instances=5)
    weight = [r for r in results if r.name == "weight stability bound"]
    assert len(weight) == 1 and not weight[0].passed
    assert weight[0].worst == np.inf and weight[0].failing_seed is not None
    assert all(r.passed for r in results if r is not weight[0])
    assert cli.main(["verify-lemmas", "--instances", "5"]) == 4
    assert "FAIL  weight stability bound" in capsys.readouterr().out
