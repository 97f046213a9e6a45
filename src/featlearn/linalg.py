"""Dense symmetric linear algebra used by the PCA stage: the sample
covariance matrix and a full symmetric eigendecomposition via cyclic Jacobi
rotations. Sized for dense problems up to a few hundred features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SYM_ATOL = 1e-10
_MAX_SWEEPS = 50


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` is sorted descending and ``eigenvectors[:, j]`` is the
    unit-norm eigenvector paired with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sample_covariance(X: np.ndarray) -> np.ndarray:
    """Covariance S = (1/n) sum_i (x_i - xbar)(x_i - xbar)^T, denominator n."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("sample_covariance requires at least 2 rows")
    centered = X - X.mean(axis=0)
    S = (centered.T @ centered) / n
    return (S + S.T) / 2.0


@lru_cache(maxsize=64)
def _round_robin(p: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Tournament schedule: p-1 rounds of disjoint index pairs covering all
    p(p-1)/2 pairs exactly once. Disjointness lets a whole round of Jacobi
    rotations be applied with vectorized row/column updates."""
    players = list(range(p)) + ([-1] if p % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ks, ls = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a >= 0 and b >= 0:
                ks.append(min(a, b))
                ls.append(max(a, b))
        rounds.append((np.array(ks, dtype=np.intp), np.array(ls, dtype=np.intp)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _check_symmetric(M: np.ndarray, op: str) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{op} requires a square matrix, got shape {A.shape}")
    if A.shape[0] >= 1 and np.max(np.abs(A - A.T), initial=0.0) >= _SYM_ATOL:
        raise ValueError(f"{op} requires a symmetric matrix (|M - M^T| >= {_SYM_ATOL})")
    return A


def _off_frobenius(A: np.ndarray) -> float:
    return float(np.sqrt(max(np.sum(A * A) - np.sum(np.diag(A) ** 2), 0.0)))


def sym_eigen(M: np.ndarray) -> SymEigen:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Sweeps (round-robin orderings of all index pairs) run until the
    off-diagonal Frobenius norm drops below tol = 1e-11 * max(1, |M|_F);
    rotations with |a_kl| <= tol/p are skipped, which cannot leave more than
    tol of off-diagonal mass behind.

    Raises ConvergenceError after 50 sweeps, which does not happen for
    symmetric input at reachable tolerances.
    """
    A = _check_symmetric(M, "sym_eigen").copy()
    p = A.shape[0]
    if p == 0:
        raise ValueError("sym_eigen requires p >= 1")
    tol = 1e-11 * max(1.0, float(np.linalg.norm(A)))
    if p == 1:
        return SymEigen(A[0].copy(), np.ones((1, 1)))

    V = np.eye(p)
    thresh = tol / p
    for _ in range(_MAX_SWEEPS):
        if _off_frobenius(A) < tol:
            break
        rotated = False
        for ks, ls in _round_robin(p):
            akl = A[ks, ls]
            active = np.abs(akl) > thresh
            if not np.any(active):
                continue
            rotated = True
            ks_a, ls_a, akl_a = ks[active], ls[active], akl[active]
            # Rotation angle zeroing a_kl: t = sign(tau)/(|tau| + sqrt(1+tau^2))
            tau = (A[ls_a, ls_a] - A[ks_a, ks_a]) / (2.0 * akl_a)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # A <- J^T A J with J block-rotations on the disjoint pairs
            Ak, Al = A[:, ks_a].copy(), A[:, ls_a].copy()
            A[:, ks_a] = c * Ak - s * Al
            A[:, ls_a] = s * Ak + c * Al
            Rk, Rl = A[ks_a, :].copy(), A[ls_a, :].copy()
            A[ks_a, :] = c[:, None] * Rk - s[:, None] * Rl
            A[ls_a, :] = s[:, None] * Rk + c[:, None] * Rl
            Vk, Vl = V[:, ks_a].copy(), V[:, ls_a].copy()
            V[:, ks_a] = c * Vk - s * Vl
            V[:, ls_a] = s * Vk + c * Vl
        A = (A + A.T) / 2.0
        if not rotated:
            break
    else:
        raise ConvergenceError(f"Jacobi sweeps exceeded {_MAX_SWEEPS} without reaching tol={tol:g}")

    eigenvalues = np.diag(A).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    V = V[:, order]
    # Sign convention: make each eigenvector's largest-magnitude entry positive
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(p)] < 0
    V[:, flip] *= -1.0
    eigenvalues.setflags(write=False)
    V.setflags(write=False)
    return SymEigen(eigenvalues, V)

