"""Full symmetric eigendecomposition by cyclic Jacobi rotations, the PCA
stage's eigensolver. Sized for dense problems up to a few hundred features.

``sym_eigen`` decomposes a stack of equal-size matrices with one
round-robin loop (Brent & Luk 1985), and each result is byte-equal to
decomposing that matrix alone, as a one-member stack. Its rules:

- tolerances, thresholds, the sweep limit and both stop rules are per
  matrix, and a matrix that has met its stop rule is not touched again;
- a round rotates only the pairs that are active in their own matrix, by
  gathering exactly those columns and rows, so every element gets the same
  ``c*Mk - s*Ml`` / ``s*Mk + c*Ml`` as alone and an inactive pair keeps its
  bytes (rotating it by c = 1, s = 0 instead would not: -0.0 - 0*y is +0.0
  for y < 0);
- each matrix's off-diagonal norm is reduced over its own p x p array.
"""

from __future__ import annotations

import numpy as np

_SYM_ATOL = 1e-10
_MAX_SWEEPS = 50


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


def _round_robin(p: int) -> np.ndarray:
    """Tournament schedule: rounds of disjoint index pairs covering all
    p(p-1)/2 pairs exactly once, as a (rounds, 2, p // 2) array of (ks, ls)
    with ks < ls. Disjointness lets a whole round of Jacobi rotations be
    applied with vectorized row/column updates."""
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
        rounds.append((ks, ls))
        players = [players[0], players[-1]] + players[1:-1]
    return np.array(rounds, dtype=np.intp).reshape(len(rounds), 2, p // 2)


def _off_frobenius(A: np.ndarray) -> float:
    return float(np.sqrt(max(np.sum(A * A) - np.sum(np.diag(A) ** 2), 0.0)))


def sym_eigen(Ms) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecompositions of equal-size symmetric matrices,
    returned as ``np.linalg.eigh`` returns a stack's: (m, p) eigenvalues, in
    the converged diagonal's order, and (m, p, p) C-contiguous unit-norm
    eigenvectors, ``vectors[i][:, j]`` paired with ``values[i, j]``.

    For each matrix M, sweeps (round-robin orderings of all index pairs) run
    until the off-diagonal Frobenius norm drops below tol = 1e-11 *
    max(1, |M|_F); rotations with |a_kl| <= tol/p are skipped, which cannot
    leave more than tol of off-diagonal mass behind. A sweep that rotates
    nothing also stops.

    Member i of each array is byte-equal to member 0 of that array of
    ``sym_eigen([Ms[i]])``; the module docstring gives the rules that keep
    it so. The stack is one (m, p, 2p) array W, where W[i, j] is column j
    of matrix i's [A; V], V being its eigenvector estimate. So one round
    gathers the active pairs' columns of [A; V] as contiguous rows of W, and
    the rows of A from the transposed view of W[:, :, :p].

    Raises ValueError unless the members are p x p matrices, p >= 1 (numpy's
    ``np.stack`` refuses an empty block or members of differing shapes), and,
    naming the matrix, for a non-symmetric or non-finite member; and
    ConvergenceError, naming the first such matrix, if one is still rotating
    after 50 sweeps.
    """
    As = np.stack([np.asarray(M, dtype=float) for M in Ms])
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise ValueError(f"sym_eigen requires square matrices, got a block of shape {As.shape}")
    m, p = As.shape[:2]
    for i, A in enumerate(As):
        if not np.all(np.isfinite(A)):
            raise ValueError(f"matrix {i} has a non-finite entry")
        if np.max(np.abs(A - A.T), initial=0.0) >= _SYM_ATOL:
            raise ValueError(f"sym_eigen requires a symmetric matrix (|M - M^T| >= {_SYM_ATOL}), "
                             f"not so for matrix {i}")
    if p == 0:
        raise ValueError("sym_eigen requires p >= 1")
    tol = np.array([1e-11 * max(1.0, float(np.linalg.norm(A))) for A in As])
    # thresh is +inf for a matrix that has met its stop rule: none of its
    # pairs is active again
    thresh = (tol / p)[:, None]
    W = np.empty((m, p, 2 * p))
    W[:, :, :p] = As.transpose(0, 2, 1)
    W[:, :, p:] = np.eye(p)
    At = W[:, :, :p]
    cols, rows = W.reshape(m * p, 2 * p), At.transpose(0, 2, 1)
    # per round, (m, p // 2) arrays: k, l, their rows i*p + k and i*p + l in
    # `cols`, and the matrix index i
    at = np.arange(m)[:, None]
    pairs = _round_robin(p)
    ks, ls = pairs[:, :1], pairs[:, 1:]
    schedule = np.stack(np.broadcast_arrays(ks, ls, at * p + ks, at * p + ls, at), axis=1)
    live = np.ones(m, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        for i in np.flatnonzero(live):
            # reduced over A_i in its own C order, as alone
            if _off_frobenius(np.ascontiguousarray(At[i].T)) < tol[i]:
                live[i] = False
        thresh[~live] = np.inf
        if not live.any():
            break
        rotated = np.zeros(schedule.shape[2:], dtype=bool)
        for idx in schedule:
            akl = cols[idx[3], idx[0]]
            active = np.abs(akl) > thresh
            if not active.any():
                continue
            np.logical_or(rotated, active, out=rotated)
            k, l, kc, lc, im = idx[:, active]
            # Rotation angle zeroing a_kl: t = sign(tau)/(|tau| + sqrt(1+tau^2))
            tau = (cols[lc, l] - cols[kc, k]) / (2.0 * akl[active])
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c, s = c[:, None], s[:, None]
            # A <- J^T A J and V <- V J, J block-rotations on the disjoint
            # pairs: columns of [A; V] first, then rows of A. Each pair's
            # gathered k and l become c k - s l and s k + c l in place.
            for M, mk, ml in ((cols, kc, lc), (rows, (im, k), (im, l))):
                Mk, Ml = M[mk], M[ml]
                new = c * Mk
                new -= s * Ml
                M[mk] = new
                Mk *= s
                Ml *= c
                Mk += Ml
                M[ml] = Mk
        sub = At[live]
        At[live] = (sub + sub.transpose(0, 2, 1)) / 2.0
        live &= rotated.any(axis=1)
    else:
        if live.any():
            i = int(np.argmax(live))
            raise ConvergenceError(f"Jacobi sweeps exceeded {_MAX_SWEEPS} without reaching "
                                   f"tol={tol[i]:g} for matrix {i}")
    return (np.diagonal(At, axis1=1, axis2=2).copy(),
            np.ascontiguousarray(W[:, :, p:].transpose(0, 2, 1)))
