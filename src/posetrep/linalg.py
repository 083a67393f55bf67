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


def _guard_ranks(s: np.ndarray, tol: float) -> np.ndarray:
    """Ranks at 0.1*tol, tol and 10*tol times the largest singular value,
    for singular values s in descending order along the last axis (the
    other axes broadcast), as a new last axis of length 3.  Rank falls as
    the cut rises, so the three agree exactly when the first and the last
    do: that is the rank guard."""
    cuts = np.multiply.outer(s[..., 0], tol * _GUARD_FACTORS)
    return (s[..., None, :] > cuts[..., :, None]).sum(axis=-1)


def rank_with_guard(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, bool]:
    """Rank at tol, plus a flag telling whether the same rank comes out at
    10*tol and 0.1*tol (rank-stability guard)."""
    s = singular_values(as_complex(m))
    if s.size == 0:
        return 0, True
    low, rank, high = _guard_ranks(s, tol).tolist()
    return rank, low == high


def orthonormal_columns(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, via SVD (deterministic)."""
    m = as_complex(m)
    if m.shape[1] == 0:
        return m.copy()
    return orthonormal_stack(m[None], tol)[0]


def orthonormal_stack(m: np.ndarray, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """orthonormal_columns of every matrix of a stack m of shape (n, d, k),
    from one batched SVD: the first r left singular vectors, r the count of
    singular values above tol times the largest."""
    n, d, k = m.shape
    if k == 0 or d == 0:
        return [np.zeros((d, 0), dtype=complex) for _ in range(n)]
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    ranks = (s > tol * s[:, :1]).sum(axis=1).tolist()
    return [u[j, :, :r] for j, r in enumerate(ranks)]


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
    """Orthonormal basis of the null space: the right singular vectors past
    the rank at tol times the largest singular value."""
    return null_space_with_guard(m, tol)[0]


def null_space_with_guard(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
    """null_space, and whether the rank comes out the same at 0.1*tol and
    10*tol (the rank guard of ``rank_with_guard``).  The left singular
    vectors are formed only as far as the right ones need them: all of vh
    comes out of the thin SVD once m has at least as many rows as
    columns."""
    m = as_complex(m)
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex), True
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex), True
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    low, rank, high = _guard_ranks(s, tol).tolist()
    return vh[rank:].conj().T, low == high


def subspace_intersections(
    qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL, bases: bool = True
) -> tuple[np.ndarray, np.ndarray, list | None]:
    """range(qa[p]) intersect range(qb[p]) for stacks qa (... x d x a) and
    qb (... x d x b) whose leading axes broadcast against each other, from
    one batched SVD of the matrices [qa[p], -qb[p]].  Paired stacks of P
    matrices give P intersections; qa[None] against qb[:, None] gives all
    R x g pairs of a stack of g and a stack of R; a 2-D qb meets every
    matrix of qa.

    Returns over the broadcast leading shape the dimension of each
    intersection (the nullity of [qa[p], -qb[p]]), the rank guard, and with
    ``bases`` the orthonormal bases (nested lists of that shape).  The
    guard says whether [qa[p], -qb[p]] has the same rank at 0.1*tol, tol
    and 10*tol; False means a singular value near the cut, so the dimension
    hangs on the tolerance.  When qa[p] and qb[p] have orthonormal columns,
    the nullity is the column count of the basis: a unit null vector
    (x, y) has |x| = |y| up to tol, so the columns qa[p] x keep singular
    values near 1/sqrt(2), far above the cut.  Without ``bases`` only
    singular values are computed; they may differ from the full SVD's in
    the last bits, which can move a dimension only where the guard is
    False.  Each matrix goes through the same LAPACK call as on its own, so
    the results do not depend on what else is in the stack.
    """
    qa, qb = np.asarray(qa, dtype=complex), np.asarray(qb, dtype=complex)
    d, a = qa.shape[-2:]
    b = qb.shape[-1]
    shape = np.broadcast_shapes(qa.shape[:-2], qb.shape[:-2])
    out = np.empty(shape, dtype=object) if bases else None
    if out is not None:
        out.fill(np.zeros((d, 0), dtype=complex))
    if a == 0 or b == 0:
        dims, guard = np.zeros(shape, dtype=int), np.ones(shape, dtype=bool)
    else:
        m = np.empty(shape + (d, a + b), dtype=complex)
        m[..., :a] = qa
        m[..., a:] = -qb
        if bases:
            _, s, vh = np.linalg.svd(m, full_matrices=True)
        else:
            s = np.linalg.svd(m, compute_uv=False)
        ranks = _guard_ranks(s, tol)
        guard = ranks[..., 0] == ranks[..., 2]
        dims = a + b - ranks[..., 1]
        if bases:
            # orthonormal_columns(qa[p] @ ns[:a]) with ns the null space,
            # batched over the matrices of one nullity
            qa = np.broadcast_to(qa, shape + (d, a))
            for n in set(dims.ravel().tolist()) - {0}:
                sel = np.nonzero(dims == n)
                ns = vh[sel][:, a + b - n :].conj().transpose(0, 2, 1)
                got = orthonormal_stack(qa[sel] @ ns[:, :a], tol)
                for p, q in zip(zip(*(x.tolist() for x in sel)), got):
                    out[p] = q
    return dims, guard, None if out is None else out.tolist()


def subspace_intersection(qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of range(qa) intersect range(qb)."""
    return subspace_intersections(as_complex(qa)[None], as_complex(qb)[None], tol)[2][0]


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
