"""Dense linear-algebra primitives used throughout the package.

Everything is SVD-based and pure: ``compute_svd(m).kept()`` factors a
matrix once, with an explicit numerical-rank cutoff, and gives its
Moore-Penrose pseudoinverse and row/column projections; also hard
singular value thresholding and the exact pseudoinverse perturbation
identity used by the verification suite. ``settle_process`` sets up a
process that computes: one BLAS thread, so that products round the same
way whatever the environment asks for, no OpenSSL, and a primed heap.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Relative cutoff below which a singular value is treated as exactly zero.
RANK_RTOL = 1e-12

# Size of the block whose release raises glibc's dynamic mmap threshold (see settle_process).
HEAP_PRIME_BYTES = 4 << 20

# Thread-count setters of numpy's bundled OpenBLAS: the 64-bit-integer build's name first.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``M = left @ diag(values) @ right_t``.

    ``values`` is sorted nonincreasing; ``left`` and ``right_t.T`` have
    orthonormal columns.
    """

    left: np.ndarray
    values: np.ndarray
    right_t: np.ndarray

    def kept(self) -> SvdFactors:
        """The triplets with a singular value above ``RANK_RTOL * values[0]``; a zero matrix keeps none."""
        keep = self.values > RANK_RTOL * self.values[0]
        return SvdFactors(left=self.left[:, keep], values=self.values[keep], right_t=self.right_t[keep])

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse ``M^+``, when the factors are ``kept()``."""
        return (self.right_t.T / self.values) @ self.left.T

    def row_projection(self) -> np.ndarray:
        """Orthogonal projection onto the row space, ``M^+ M``, when the factors are ``kept()``."""
        return self.right_t.T @ self.right_t

    def col_projection(self) -> np.ndarray:
        """Orthogonal projection onto the column space, ``M M^+``, when the factors are ``kept()``."""
        return self.left @ self.left.T


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"{name} must be a 2-D array with positive dimensions")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def compute_svd(m) -> SvdFactors:
    u, s, vt = np.linalg.svd(_as_matrix(m), full_matrices=False)
    return SvdFactors(left=u, values=s, right_t=vt)


def spectral_norm(m) -> float:
    """Operator 2-norm, the largest singular value."""
    a = _as_matrix(m)
    if not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def numerical_rank(m) -> int:
    s = np.linalg.svd(_as_matrix(m), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def svt(m, lam: float) -> np.ndarray:
    """Hard singular value thresholding.

    Removes every singular value at or below the threshold (strict
    ``s > lam`` survives) and reconstructs from the surviving triplets.
    A threshold at or above the top singular value yields the zero matrix.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    a = _as_matrix(m)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > lam
    if not np.any(keep):
        return np.zeros_like(a)
    return (u[:, keep] * s[keep]) @ vt[keep]


def pinv_perturbation_residual(x, z) -> float:
    """Frobenius residual of the exact pseudoinverse perturbation identity.

    For same-shape ``X`` and ``Z``, ``Z^+ - X^+`` equals

        - Z^+ P_col(Z) (Z - X) P_row(X) X^+
        + Z^+ P_col(Z) (I - P_col(X))
        - (I - P_row(Z)) P_row(X) X^+

    so the returned residual is zero up to roundoff.
    """
    a = _as_matrix(x, "x")
    b = _as_matrix(z, "z")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    n, p = a.shape
    xp = compute_svd(a).kept().pinv()
    zp = compute_svd(b).kept().pinv()
    pcx = a @ xp
    pcz = b @ zp
    prx = xp @ a
    prz = zp @ b
    rhs = (
        -zp @ pcz @ (b - a) @ prx @ xp
        + zp @ pcz @ (np.eye(n) - pcx)
        - (np.eye(p) - prz) @ prx @ xp
    )
    return float(np.linalg.norm((zp - xp) - rhs, "fro"))


def settle_process() -> dict:
    """Set up this process to compute: numpy's BLAS on one thread, no OpenSSL, and a primed heap.

    A threaded BLAS splits a product's sums across threads, so the same
    inputs round differently under different ``OPENBLAS_NUM_THREADS``
    values; with one thread every run computes the same bits. numpy >= 2
    loads ``numpy.random`` on first use, and its bit generators import
    ``secrets`` -> ``hmac`` -> ``_hashlib``, which maps ``libcrypto``
    (3.3 MB resident) into a program that never hashes. Blocking
    ``_hashlib`` before the first draw makes ``hashlib`` and ``hmac`` use
    CPython's built-in digests, with the same results; an interpreter
    that has already loaded ``_hashlib`` keeps it.

    The heap prime allocates one untouched ``HEAP_PRIME_BYTES`` block and
    frees it at once. glibc serves a block above its mmap threshold
    (128 KiB at start) by ``mmap``, and freeing one raises the threshold
    to its size and the heap-trim threshold to twice that (mallopt(3)'s
    dynamic rule). Without the prime, a trial's temporaries of a few
    hundred KiB each came fresh from the kernel, and the heap top went
    back to it and grew again, every new page zeroed on a fault: a
    16-trial desk-scale ``simulate`` (n=100, p=150) took about 41.6k
    minor faults at 1 worker and 44.1k at 2. With the prime they stay on
    the heap: 6.3k and 14.5k-15.5k, at the same peak RSS (39.6 and 37.5 MB).
    The prime touches no page, so it costs no memory. No ``mallopt`` call
    is made: any call freezes the dynamic rule, which keeps adapting
    upward after the prime.

    All three settings hold for the calling process only, so the CLI and
    every pool worker, whatever the start method, make this call.
    Returns manifest entries: the BLAS library file and the thread count,
    ``unpinned`` when no library with a known setter is found.
    """
    import ctypes  # here, not at import: only the CLI and pool workers settle
    from pathlib import Path

    sys.modules.setdefault("_hashlib", None)
    np.empty(HEAP_PRIME_BYTES, dtype=np.uint8)  # allocated and, unreferenced, freed at once
    # Where numpy's Linux wheels put their OpenBLAS, next to the package.
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))  # the copy numpy loaded: same file, same handle
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(handle, name):
                getattr(handle, name)(1)
                return {"blas": lib.name, "blas_threads": 1}
    return {"blas": "unpinned", "blas_threads": "unpinned"}
