import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frechet_svt
from frechet_svt.linalg import (
    compute_svd,
    numerical_rank,
    pinv_perturbation_residual,
    spectral_norm,
    svt,
)
from oracles import mahalanobis_seminorm, sigma_lambda, svt_reference


def random_matrix(rng, n=None, p=None, rank=None):
    n = n or int(rng.integers(3, 9))
    p = p or int(rng.integers(2, 7))
    if rank is not None:
        return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
    return rng.standard_normal((n, p))


class TestSvt:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 6, 4)
        err = np.linalg.norm(svt(m, 0.0) - m, "fro")
        assert err <= 1e-10 * (1 + np.linalg.norm(m, "fro"))

    def test_diagonal_example(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_matches_independent_svd_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 4))
        s = np.linalg.svd(m, compute_uv=False)
        lam = float(np.median(s))
        u, sv, vt = np.linalg.svd(m)
        keep = sv > lam
        oracle = (u[:, : sv.size][:, keep] * sv[keep]) @ vt[keep]
        assert np.allclose(svt(m, lam), oracle, atol=1e-10)

    def test_threshold_at_or_above_top_gives_zero(self):
        m = np.diag([3.0, 1.0])
        assert np.all(svt(m, 3.0) == 0)
        assert np.all(svt(m, 5.0) == 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 7), st.integers(0, 7))
    def test_truncated_is_the_original_svt_to_the_bit(self, seed, n, p, rank):
        # Rank-deficient matrices (rank 0 included) at zero, between every two singular values, at the top and above.
        rng = np.random.default_rng(seed)
        rank = min(rank, n, p)
        m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        s = np.linalg.svd(m, compute_uv=False)
        for lam in [0.0, *((s[:-1] + s[1:]) / 2), s[0], 2.0 * s[0] + 1.0]:
            expected = svt_reference(m, float(lam))
            for got in (compute_svd(m).truncated(float(lam)), svt(m, float(lam))):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.floats(0.0, 5.0))
    def test_idempotent_and_rank_monotone(self, seed, lam):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng)
        once = svt(m, lam)
        assert np.linalg.norm(svt(once, lam) - once, "fro") <= 1e-10 * (1 + np.linalg.norm(once, "fro"))
        assert numerical_rank(svt(m, lam / 2 if lam else 0.0)) >= numerical_rank(once)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(compute_svd(np.eye(3)).kept().pinv(), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(compute_svd(np.diag([2.0, 0.0])).kept().pinv(), np.diag([0.5, 0.0]), atol=1e-12)

    def test_moore_penrose_identities_rank_deficient(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 4, 3, rank=2)
        mp = compute_svd(m).kept().pinv()
        scale = 1e-8 * (1 + np.linalg.norm(m, "fro") + np.linalg.norm(mp, "fro"))
        assert np.linalg.norm(m @ mp @ m - m, "fro") <= scale
        assert np.linalg.norm(mp @ m @ mp - mp, "fro") <= scale
        assert np.linalg.norm((m @ mp) - (m @ mp).T, "fro") <= scale
        assert np.linalg.norm((mp @ m) - (mp @ m).T, "fro") <= scale


class TestProjections:
    def test_full_column_rank_row_projection_is_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 3))
        assert np.allclose(compute_svd(m).kept().row_projection(), np.eye(3), atol=1e-10)

    def test_zero_matrix(self):
        z = np.zeros((4, 3))
        f = compute_svd(z).kept()
        assert f.values.size == 0
        assert f.pinv().shape == (3, 4) and np.all(f.pinv() == 0)
        assert np.all(f.row_projection() == 0)
        assert np.all(f.col_projection() == 0)

    def test_truncation_above_the_top_keeps_no_triplet(self):
        # A threshold above the top singular value truncates to the zero matrix,
        # whose factors keep no triplet, so both its projections are zero.
        rng = np.random.default_rng(5)
        full = compute_svd(random_matrix(rng, 6, 4, rank=3))
        zero = full.truncated(2 * full.values[0])
        assert zero.shape == (6, 4) and not zero.any()
        f = compute_svd(zero).kept()
        assert f.values.size == 0 and f.left.shape == (6, 0) and f.right_t.shape == (0, 4)
        assert not f.row_projection().any() and not f.col_projection().any()

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(5)
        v = rng.standard_normal(3)
        m = np.outer(u, v)
        f = compute_svd(m).kept()
        assert np.allclose(f.row_projection(), np.outer(v, v) / (v @ v), atol=1e-10)
        assert np.allclose(f.col_projection(), np.outer(u, u) / (u @ u), atol=1e-10)

    def test_idempotent_symmetric(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 6, 4, rank=2)
        f = compute_svd(m).kept()
        for proj in (f.row_projection(), f.col_projection()):
            assert np.allclose(proj @ proj, proj, atol=1e-10)
            assert np.allclose(proj, proj.T, atol=1e-12)

    def test_truncated_projection_identity(self):
        # X @ rowproj(svt(X, lam)) @ X^+ recovers colproj(svt(X, lam)).
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_matrix(rng)
            mp = compute_svd(m).kept().pinv()
            s = np.linalg.svd(m, compute_uv=False)
            for lam in [0.0, float(s.mean()), float(s[0] * 1.5)]:
                t = compute_svd(svt(m, lam)).kept()
                lhs = m @ t.row_projection() @ mp
                scale = 1e-8 * (1 + np.linalg.norm(mp, "fro"))
                assert np.linalg.norm(lhs - t.col_projection(), "fro") <= scale
                rhs = mp @ t.col_projection() @ m
                assert np.linalg.norm(rhs - t.row_projection(), "fro") <= scale

    def test_projection_perturbation_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = random_matrix(rng, rank=int(rng.integers(1, 3)))
            z = x + float(rng.choice([1e-3, 1e-1, 1.0])) * rng.standard_normal(x.shape)
            fx, fz = compute_svd(x).kept(), compute_svd(z).kept()
            lhs = spectral_norm(fz.col_projection() - fx.col_projection())
            e = z - x
            bound = max(spectral_norm(e @ fx.pinv()), spectral_norm(e @ fz.pinv()))
            assert lhs <= bound + 1e-10


class TestSigmaLambda:
    def test_diagonal_examples(self):
        m = np.diag([3.0, 1.0])
        assert sigma_lambda(m, 2.0) == 3.0
        assert sigma_lambda(m, 5.0) == np.inf

    def test_zero_threshold_gives_smallest_nonzero(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, 6, 4, rank=2)
        s = np.linalg.svd(m, compute_uv=False)
        nonzero = s[s > 1e-12 * s[0]]
        assert np.isclose(sigma_lambda(m, 0.0), nonzero.min())


class TestMahalanobis:
    def test_zero_vector(self):
        assert mahalanobis_seminorm(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_matrix_is_l2_norm(self):
        x = np.array([3.0, 4.0])
        assert np.isclose(mahalanobis_seminorm(x, np.eye(2)), 5.0)

    def test_null_space_annihilated(self):
        # S = diag(4, 0): the second coordinate contributes nothing.
        assert np.isclose(mahalanobis_seminorm([2.0, 7.0], np.diag([4.0, 0.0])), 1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mahalanobis_seminorm([1.0, 2.0], np.ones((2, 3)))


def perturbation_residual(x, z):
    """``pinv_perturbation_residual`` on the pseudoinverses of ``x`` and ``z``."""
    return pinv_perturbation_residual(x, z, compute_svd(x).kept().pinv(), compute_svd(z).kept().pinv())


class TestPinvPerturbation:
    def test_equal_matrices(self):
        rng = np.random.default_rng(9)
        x = random_matrix(rng, 4, 4)
        assert perturbation_residual(x, x) <= 1e-12

    def test_small_perturbation_full_rank(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 4))
        z = x + 0.01 * rng.standard_normal((4, 4))
        scale = 1e-8 * (
            1
            + np.linalg.norm(compute_svd(x).kept().pinv(), "fro")
            + np.linalg.norm(compute_svd(z).kept().pinv(), "fro")
        )
        assert perturbation_residual(x, z) <= scale

    def test_rank_deficient(self):
        rng = np.random.default_rng(11)
        x = random_matrix(rng, 6, 4, rank=2)
        z = rng.standard_normal((6, 4))
        scale = 1e-8 * (
            1
            + np.linalg.norm(compute_svd(x).kept().pinv(), "fro")
            + np.linalg.norm(compute_svd(z).kept().pinv(), "fro")
        )
        assert perturbation_residual(x, z) <= scale

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            perturbation_residual(np.eye(2), np.eye(3))


# Runs in a fresh interpreter: the heap state of the test process is not settle_process's alone.
_HEAP_CYCLES = """
import resource
import numpy as np
from frechet_svt.linalg import settle_process

settle_process()

def cycle():
    a = np.empty(3 << 17)  # 3 MiB of float64, above glibc's initial 128 KiB mmap threshold
    a.fill(1.0)

cycle()  # the heap grows to hold it, once
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap prime relies on glibc's dynamic mmap threshold")
def test_settled_process_reuses_heap_for_a_trial_sized_array():
    # Without the prime the warm-up array gets a mapping of its own, above
    # glibc's initial threshold; only its release raises the threshold, so
    # the first measured cycle grows the heap and faults on each new page
    # (720 faults in the 20 cycles with glibc 2.36).
    src = str(Path(frechet_svt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _HEAP_CYCLES], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults < 20, f"{faults} minor faults in 20 allocate-fill-free cycles"


@pytest.mark.parametrize("m, message", [
    (np.zeros((0, 3)), "matrix must be a 2-D array with positive dimensions"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "matrix has non-finite entries"),
], ids=["empty", "non-finite"])
def test_compute_svd_rejects_bad_matrices(m, message):
    with pytest.raises(ValueError) as raised:
        compute_svd(m)
    assert str(raised.value) == message
