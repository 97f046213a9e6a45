"""The cyclic Jacobi loop with its rotation written out three times, kept as
the reference for ``featlearn.linalg``: ``sym_eigen`` must reproduce
``three_rotation_jacobi`` byte for byte, eigenvalues and eigenvectors.

A's columns, A's rows and V's columns are each gathered, copied and
scattered on their own; the schedule, thresholds, angle formula and stop
rules are the package's, and so is the unsorted, unsigned return.
"""

from __future__ import annotations

import numpy as np

from featlearn.linalg import _MAX_SWEEPS, ConvergenceError, _off_frobenius, _round_robin


def three_rotation_jacobi(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition by cyclic Jacobi rotations, with V kept
    apart from A and p = 1 returned before any sweep: the eigenvalues in
    the converged diagonal's order and the eigenvectors as V's columns."""
    A = np.asarray(M, dtype=float).copy()
    p = A.shape[0]
    tol = 1e-11 * max(1.0, float(np.linalg.norm(A)))
    if p == 1:
        return A[0].copy(), np.ones((1, 1))

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

    return np.diag(A).copy(), V
