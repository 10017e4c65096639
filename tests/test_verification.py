import numpy as np

from frechet_svt import cli, diagnostics, verification
from frechet_svt.linalg import SvdFactors, compute_svd, pinv_perturbation_residual
from frechet_svt.regression import covariate_stats
from frechet_svt.verification import run_suite


def test_each_instance_drawn_once_and_each_matrix_factored_once(monkeypatch):
    # At 100 instances the suite once drew every instance five times
    # (500 draws) and refactored X and Z in every check (4350 SVDs); then
    # svt and the perturbation identity still refactored X and Z (1982),
    # a probe above the top singular value factored a zero matrix per
    # instance (1237), and the checks formed each pseudoinverse four times.
    original_svd, original_draw, original_pinv = np.linalg.svd, verification._random_instance, SvdFactors.pinv
    svds, draws, pinvs = [], [], []

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return original_svd(*args, **kwargs)

    def counting_draw(rng):
        draws.append(1)
        return original_draw(rng)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    def counting_pinv(self):
        pinvs.append(1)
        return original_pinv(self)

    monkeypatch.setattr(verification, "_random_instance", counting_draw)
    monkeypatch.setattr(SvdFactors, "pinv", counting_pinv)
    results = run_suite(seed=1, instances=100)
    assert all(r.passed for r in results)
    assert len(draws) == 100
    assert 0 < len(svds) <= 1137
    assert 0 < len(pinvs) <= 200  # one for X and one for Z per instance


def test_failing_seed_is_first_worst_instance():
    seed, instances = 3, 40
    results = run_suite(seed=seed, instances=instances, inject_fault=True)
    residuals = []
    for i in range(instances):
        x, z = verification._random_instance(np.random.default_rng([seed, i]))
        xp, zp = compute_svd(x).kept().pinv(), compute_svd(z).kept().pinv()
        scale = 1.0 + np.linalg.norm(xp, "fro") + np.linalg.norm(zp, "fro")
        residuals.append(float((pinv_perturbation_residual(x, z, xp, zp) + 1e-3) / scale))
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


def test_weight_margin_equals_the_margin_from_diagnose_columns(monkeypatch):
    # One weight_stability_check call covers every shared-gap threshold of an
    # instance; its margin must be the one that one diagnose per threshold
    # gives from its own weight columns, bit for bit.
    thresholds, calls = [], []
    original_thresholds, original_check = verification.shared_gap_thresholds, verification.weight_stability_check

    def recording_thresholds(stats, noise_norm):
        thresholds.append(original_thresholds(stats, noise_norm))
        return thresholds[-1]

    def recording_check(clean, noisy, lams, query, noise):
        checks = original_check(clean, noisy, lams, query, noise)
        calls.append((clean, noisy, lams, query, noise, checks))
        return checks

    monkeypatch.setattr(verification, "shared_gap_thresholds", recording_thresholds)
    monkeypatch.setattr(verification, "weight_stability_check", recording_check)
    checked = 0
    for seed in range(3):
        for i in range(50):
            thresholds.clear()
            calls.clear()
            margin = verification._weight_stability_margin(np.random.default_rng([seed, i]))
            assert len(thresholds) == 1 and len(calls) == 1
            clean, noisy, lams, query, noise, checks = calls[0]
            assert list(lams) == thresholds[0]
            assert len(checks) == len(lams)
            expected = 0.0
            for lam, check in zip(lams, checks):
                cols = diagnostics.diagnose(clean, noisy.covariates, lam, query)
                assert noise.hex() == cols["noise_norm"].hex()
                # The margin is clipped at 0, so compare each threshold's columns too.
                assert check.rowspace_ok == cols["rowspace_ok"]
                assert check.weight_lhs.hex() == cols["weight_lhs"].hex()
                assert check.weight_rhs.hex() == cols["weight_rhs"].hex()
                if not cols["rowspace_ok"]:
                    expected = np.inf
                    break
                lhs, rhs = cols["weight_lhs"], cols["weight_rhs"]
                expected = max(expected, (lhs - rhs) / (1.0 + rhs))
            assert float(margin).hex() == float(expected).hex(), (seed, i)
            checked += len(lams)
    assert checked >= 300  # about three thresholds an instance


def test_one_noise_svd_per_weight_pair(monkeypatch):
    # The suite once called weight_stability_check per threshold (295 calls
    # at seed 1), each taking the SVD of the same noise again, and then took
    # two per pair, one for the thresholds and one in the check. The margin
    # now takes one and hands it to the check.
    norms, pairs = [], []
    original_norm, original_check = verification.spectral_norm, verification.weight_stability_check

    def recording_norm(a):
        norms.append(np.asarray(a).tobytes())
        return original_norm(a)

    def recording_check(clean, noisy, lams, query, noise):
        pairs.append((noisy.covariates - clean.covariates).tobytes())
        return original_check(clean, noisy, lams, query, noise)

    for module in (diagnostics, verification):
        monkeypatch.setattr(module, "spectral_norm", recording_norm)
    monkeypatch.setattr(verification, "weight_stability_check", recording_check)
    results = run_suite(seed=1, instances=100)
    assert all(r.passed for r in results)
    assert len(pairs) == 100
    # three for the projection perturbation bound and one for the noise, per instance
    assert len(norms) == 4 * len(pairs)
    assert all(norms.count(noise) == 1 for noise in pairs)


def test_a_zero_design_has_no_shared_gap_thresholds():
    # It keeps no component, so no threshold sits in a gap of its spectrum.
    assert verification.shared_gap_thresholds(covariate_stats(np.zeros((4, 3))), 0.1) == []
