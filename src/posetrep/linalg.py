"""Dense complex linear algebra helpers used by the numeric modules.

Rank and inclusion decisions are tolerance based: a singular value counts as
zero when it is below tol times the largest singular value of the matrix.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
#: the rank guard compares the rank at these multiples of the tolerance
_GUARD_FACTORS = np.array([0.1, 1.0, 10.0])


def as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def singular_values(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def numerical_rank(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    s = singular_values(as_complex(m))
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def rank_with_guard(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, bool]:
    """Rank at tol, plus a flag telling whether the same rank comes out at
    10*tol and 0.1*tol (rank-stability guard)."""
    s = singular_values(as_complex(m))
    if s.size == 0:
        return 0, True
    ranks = {int(np.count_nonzero(s > f * tol * s[0])) for f in (1.0, 10.0, 0.1)}
    return int(np.count_nonzero(s > tol * s[0])), len(ranks) == 1


def orthonormal_columns(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, via SVD (deterministic)."""
    m = as_complex(m)
    if m.shape[1] == 0:
        return m.copy()
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = int(np.count_nonzero(s > tol * s[0])) if s.size else 0
    return u[:, :r]


def projector(q: np.ndarray) -> np.ndarray:
    q = as_complex(q)
    return q @ q.conj().T


def inclusion_residual(q_small: np.ndarray, q_big: np.ndarray) -> float:
    """Largest singular value of (I - P_big) Q_small; 0 when contained."""
    q_small, q_big = as_complex(q_small), as_complex(q_big)
    if q_small.shape[1] == 0:
        return 0.0
    res = q_small - q_big @ (q_big.conj().T @ q_small)
    s = singular_values(res)
    return float(s[0]) if s.size else 0.0


def same_subspace(qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if qa.shape[1] != qb.shape[1]:
        return False
    return inclusion_residual(qa, qb) <= tol and inclusion_residual(qb, qa) <= tol


def subspace_sum(qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    return orthonormal_columns(np.hstack([as_complex(qa), as_complex(qb)]), tol)


def null_space(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    m = as_complex(m)
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
    return vh[r:].conj().T


def subspace_intersections(
    qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL, bases: bool = True
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """range(qa[i]) intersect range(qb) for a stack qa of g matrices of one
    width, from one batched SVD of the stacked [qa[i], -qb].

    Returns per i the dimension of the intersection (the nullity of
    [qa[i], -qb]), the rank guard, and with ``bases`` the orthonormal bases.
    The guard says whether [qa[i], -qb] has the same rank at 0.1*tol, tol
    and 10*tol; False means a singular value near the cut, so the dimension
    hangs on the tolerance.  When qa[i] and qb have orthonormal columns, the
    nullity is the column count of the basis: a unit null vector (x, y) has
    |x| = |y| up to tol, so the columns qa[i] x keep singular values near
    1/sqrt(2), far above the cut.  Without ``bases`` only singular values
    are computed; they may differ from the full SVD's in the last bits,
    which can move a dimension only where the guard is False.
    """
    qb = as_complex(qb)
    g, d, a = qa.shape
    b = qb.shape[1]
    if a == 0 or b == 0:
        empty = [np.zeros((d, 0), dtype=complex) for _ in range(g)] if bases else None
        return np.zeros(g, dtype=int), np.ones(g, dtype=bool), empty
    m = np.empty((g, d, a + b), dtype=complex)
    m[:, :, :a] = qa
    m[:, :, a:] = -qb
    if bases:
        _, s, vh = np.linalg.svd(m, full_matrices=True)
    else:
        s = np.linalg.svd(m, compute_uv=False)
    # ranks at 0.1*tol, tol and 10*tol, in one comparison
    cuts = np.multiply.outer(s[:, 0], tol * _GUARD_FACTORS)
    ranks = (s[:, None, :] > cuts[:, :, None]).sum(axis=2)
    guard = ranks[:, 0] == ranks[:, 2]
    dims = a + b - ranks[:, 1]
    if not bases:
        return dims, guard, None
    # orthonormal_columns(qa[i] @ ns[:a]) with ns the null space, batched
    # over the matrices of one nullity
    out: list[np.ndarray] = [np.zeros((d, 0), dtype=complex)] * g
    for n in set(dims.tolist()) - {0}:
        sel = np.flatnonzero(dims == n)
        ns = vh[sel, a + b - n :].conj().transpose(0, 2, 1)
        u, s, _ = np.linalg.svd(qa[sel] @ ns[:, :a], full_matrices=False)
        cols = (s > tol * s[:, :1]).sum(axis=1).tolist()
        for j, i in enumerate(sel.tolist()):
            out[i] = u[j, :, : cols[j]]
    return dims, guard, out


def subspace_intersection(qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of range(qa) intersect range(qb)."""
    return subspace_intersections(as_complex(qa)[None], qb, tol)[2][0]


def condition_number(m: np.ndarray) -> float:
    s = singular_values(as_complex(m))
    if s.size == 0:
        return 1.0
    if s[-1] == 0:
        return np.inf
    return float(s[0] / s[-1])


def herm_expm(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via eigendecomposition."""
    w, v = np.linalg.eigh(as_complex(h))
    return (v * np.exp(w)) @ v.conj().T


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_subspace(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    """Haar-ish random k-dimensional subspace of C^dim, as orthonormal basis."""
    if k == 0:
        return np.zeros((dim, 0), dtype=complex)
    return orthonormal_columns(random_complex(rng, dim, k))
