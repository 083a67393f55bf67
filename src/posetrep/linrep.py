r"""Subspace representations of posets and their slope stability.

A representation assigns to each poset element a subspace of a fixed ambient
space, with V_i <= V_j whenever i < j.  A positive rational weight chi (one
entry chi_0 for the ambient space, one entry per element) defines the score

    f(K) = sum_i chi_i dim(V_i /\ K) - sigma dim K,
    sigma = sum_i chi_i dim V_i / dim V,

for proper nonzero subspaces K.  The representation is slope stable when
f(K) < 0 for every such K, semistable when f never becomes positive.  Scores
are computed in exact rational arithmetic from numerically determined
intersection dimensions; f is supermodular on the subspace lattice, and the
saturation K -> sum_i (V_i /\ K) never lowers it, which justifies the
randomized destabilizer search below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import mul
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import linalg
from .errors import (
    LatticeTooLarge,
    NestingViolation,
    PosetMismatch,
    RankDeficient,
    WrongShape,
)
from .poset import Poset, connected_components

DEFAULT_TOL = 1e-9

STABLE = "stable"
POLYSTABLE_NOT_STABLE = "polystable_not_stable"
SEMISTABLE_NOT_POLYSTABLE = "semistable_not_polystable"
UNSTABLE = "unstable"


class SubspaceRep:
    """Nested family of subspaces indexed by a poset.

    ``spans[e]`` is a (d0 x d_e) matrix with orthonormal columns spanning
    V_e.  Use :func:`make_rep` to construct from raw spanning matrices; the
    constructor itself trusts its input and only checks shapes.  The spans
    are not changed after construction: the stability and moment-map code
    stack them once and keep the stacks.
    """

    __slots__ = ("poset", "ambient_dim", "spans", "_groups")

    def __init__(self, poset: Poset, ambient_dim: int, spans: Mapping[str, np.ndarray]):
        if ambient_dim < 0:
            raise WrongShape("ambient dimension must be nonnegative")
        self.poset = poset
        self.ambient_dim = int(ambient_dim)
        self.spans: dict[str, np.ndarray] = {}
        for e in poset.elements:
            q = linalg.as_complex(spans.get(e, np.zeros((ambient_dim, 0))))
            if q.shape[0] != ambient_dim:
                raise WrongShape(f"span for {e!r} has {q.shape[0]} rows, ambient is {ambient_dim}")
            if q.shape[1] > ambient_dim:
                raise WrongShape(f"span for {e!r} has more columns than the ambient dimension")
            self.spans[e] = q
        self._groups: list[tuple[list[int], np.ndarray]] | None = None

    def dim(self, e: str) -> int:
        return self.spans[e].shape[1]

    def dims(self) -> dict[str, int]:
        return {e: self.dim(e) for e in self.poset.elements}

    def dim_vector(self) -> tuple[int, ...]:
        """Root dimension first, then element dimensions in poset order."""
        return (self.ambient_dim,) + tuple(self.dim(e) for e in self.poset.elements)

    def transformed(self, g: np.ndarray, tol: float = DEFAULT_TOL) -> "SubspaceRep":
        """Image representation g V under an invertible map g."""
        g = linalg.as_complex(g)
        return make_rep(
            self.poset,
            self.ambient_dim,
            {e: g @ q for e, q in self.spans.items()},
            tol=tol,
        )

    def __repr__(self) -> str:
        return f"SubspaceRep(d={self.dim_vector()})"


def make_rep(
    poset: Poset,
    ambient_dim: int,
    spans: Mapping[str, np.ndarray],
    tol: float = DEFAULT_TOL,
) -> SubspaceRep:
    """Validate and orthonormalize spanning matrices into a SubspaceRep.

    Raises RankDeficient when a spanning matrix has lower numerical rank than
    its column count and NestingViolation when some inclusion V_i <= V_j
    fails beyond tol (measured on orthonormalized bases).
    """
    unknown = set(spans) - set(poset.elements)
    if unknown:
        raise WrongShape(f"spans given for unknown elements {sorted(unknown)}")
    cleaned: dict[str, np.ndarray] = {}
    for e in poset.elements:
        raw = linalg.as_complex(spans.get(e, np.zeros((ambient_dim, 0))))
        if raw.shape[0] != ambient_dim:
            raise WrongShape(f"span for {e!r} has {raw.shape[0]} rows, ambient is {ambient_dim}")
        if raw.shape[1]:
            cleaned[e] = linalg.orthonormal_columns(raw, tol)
            if cleaned[e].shape[1] < raw.shape[1]:
                raise RankDeficient(
                    f"span for {e!r} has rank below its {raw.shape[1]} columns"
                )
        else:
            cleaned[e] = np.zeros((ambient_dim, 0), dtype=complex)
    for a, b in poset.pairs:
        res = linalg.inclusion_residual(cleaned[a], cleaned[b])
        if res > tol:
            raise NestingViolation(
                f"V_{a} is not contained in V_{b} (residual {res:.2e} > {tol:.0e})"
            )
    return SubspaceRep(poset, ambient_dim, cleaned)


def direct_sum(a: SubspaceRep, b: SubspaceRep) -> SubspaceRep:
    """Block-diagonal direct sum over a common poset."""
    if a.poset != b.poset:
        raise PosetMismatch("direct sum requires representations of the same poset")
    d = a.ambient_dim + b.ambient_dim
    spans = {}
    for e in a.poset.elements:
        qa, qb = a.spans[e], b.spans[e]
        q = np.zeros((d, qa.shape[1] + qb.shape[1]), dtype=complex)
        q[: a.ambient_dim, : qa.shape[1]] = qa
        q[a.ambient_dim :, qa.shape[1] :] = qb
        spans[e] = q
    return SubspaceRep(a.poset, d, spans)


# ---------------------------------------------------------------------------
# weights

class Weight:
    """Positive rational weight: chi0 for the ambient space, chi_e per element."""

    __slots__ = ("chi0", "chi")

    def __init__(self, chi0, chi: Mapping[str, object]):
        self.chi0 = Fraction(chi0)
        self.chi = {e: Fraction(v) for e, v in chi.items()}
        if self.chi0 <= 0 or any(v <= 0 for v in self.chi.values()):
            raise WrongShape("weight entries must all be positive")

    @classmethod
    def from_entries(cls, poset: Poset, entries: Iterable) -> "Weight":
        entries = list(entries)
        if len(entries) != len(poset) + 1:
            raise WrongShape(
                f"weight has {len(entries)} entries, poset needs {len(poset) + 1}"
            )
        return cls(entries[0], dict(zip(poset.elements, entries[1:])))

    def aligned(self, poset: Poset) -> "Weight":
        missing = [e for e in poset.elements if e not in self.chi]
        if missing or len(self.chi) != len(poset):
            raise WrongShape(f"weight does not match poset elements (missing {missing})")
        return self

    def normalized(self, poset: Poset) -> dict[str, float]:
        """chi_e / chi0 as floats, for the numeric modules."""
        return {e: float(self.chi[e] / self.chi0) for e in poset.elements}

    def common_integer(self, poset: Poset) -> tuple[int, dict[str, int]]:
        """Scale to a common denominator: integer weights with the same ratios."""
        den = lcm(self.chi0.denominator, *(self.chi[e].denominator for e in poset.elements)) \
            if poset.elements else self.chi0.denominator
        return int(self.chi0 * den), {e: int(self.chi[e] * den) for e in poset.elements}

    def slope(self, rep: SubspaceRep) -> Fraction:
        """sum chi_e dim V_e / dim V, exact."""
        self.aligned(rep.poset)
        if rep.ambient_dim == 0:
            raise WrongShape("slope of the zero representation is undefined")
        return Fraction(
            sum(self.chi[e] * rep.dim(e) for e in rep.poset.elements), 1
        ) / rep.ambient_dim

    def trace_identity(self, rep: SubspaceRep) -> bool:
        """Exact check of sum chi_e d_e == chi0 d0."""
        self.aligned(rep.poset)
        total = sum(self.chi[e] * rep.dim(e) for e in rep.poset.elements)
        return total == self.chi0 * rep.ambient_dim

    def __repr__(self) -> str:
        return f"Weight({self.chi0}; {self.chi})"


# ---------------------------------------------------------------------------
# endomorphisms and direct-sum decomposition

def endomorphism_algebra(rep: SubspaceRep, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of {f : f V_e <= V_e for all e}, as d0 x d0 matrices.

    Solves the stacked linear system (I - P_e) f P_e = 0 by a singular value
    decomposition of the Kronecker constraint matrix.  The complex dimension
    of the algebra is the length of the returned list.
    """
    d0 = rep.ambient_dim
    if d0 == 0:
        return []
    eye = np.eye(d0, dtype=complex)
    constraints = []
    for e in rep.poset.elements:
        q = rep.spans[e]
        if q.shape[1] in (0, d0):
            continue  # constraint is vacuous
        p = linalg.projector(q)
        constraints.append(np.kron(p.T, eye - p))
    if not constraints:
        ns = np.eye(d0 * d0, dtype=complex)
    else:
        ns = linalg.null_space(np.vstack(constraints), tol)
    return [ns[:, k].reshape((d0, d0), order="F") for k in range(ns.shape[1])]


class Decomposition(NamedTuple):
    summands: list[SubspaceRep]
    embeddings: list[np.ndarray]
    diagnostics: dict


def _eig_clusters(values: np.ndarray) -> list[list[int]]:
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    thr = 1e-6 * scale
    n = len(values)
    close = (
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(values[i] - values[j]) <= thr
    )
    return connected_components(range(n), close)


def _generalized_eigenspaces(f: np.ndarray, tol: float) -> list[np.ndarray] | None:
    """Orthonormal bases of the generalized eigenspaces of f, or None when
    the numerical split is not clean."""
    n = f.shape[0]
    values = np.linalg.eigvals(f)
    clusters = _eig_clusters(values)
    if len(clusters) <= 1:
        return None
    bases = []
    for cluster in clusters:
        others = [k for k in range(n) if k not in cluster]
        m = np.eye(n, dtype=complex)
        for k in others:
            m = m @ (f - values[k] * np.eye(n, dtype=complex))
        basis = linalg.orthonormal_columns(m, tol)
        if basis.shape[1] != len(cluster):
            return None
        bases.append(basis)
    if sum(b.shape[1] for b in bases) != n:
        return None
    return bases


def _restrict_to_block(rep: SubspaceRep, block: np.ndarray, tol: float) -> SubspaceRep | None:
    spans = {}
    for e in rep.poset.elements:
        inter = linalg.subspace_intersection(rep.spans[e], block, tol)
        spans[e] = block.conj().T @ inter
    try:
        sub = make_rep(rep.poset, block.shape[1], spans, tol=10 * tol)
    except (RankDeficient, NestingViolation):
        return None
    return sub


def decompose_full(rep: SubspaceRep, seed: int = 0, tol: float = DEFAULT_TOL) -> Decomposition:
    """Split into indecomposable summands; deterministic given the seed.

    Samples a random endomorphism, splits the ambient space along its
    generalized eigenspaces (their spectral projections commute with every
    V_e), intersects, and recurses until each block has a one-dimensional
    endomorphism algebra or refuses to split further.  Returns the summands
    together with isometric embeddings of their ambient spaces.
    """
    rng = np.random.default_rng(seed)
    diagnostics = {"samples": 0, "failed_splits": 0}

    def rec(sub: SubspaceRep) -> list[tuple[SubspaceRep, np.ndarray]]:
        d = sub.ambient_dim
        if d == 0:
            return []
        basis = endomorphism_algebra(sub, tol)
        if len(basis) <= 1:
            return [(sub, np.eye(d, dtype=complex))]
        for _ in range(4):
            diagnostics["samples"] += 1
            coeff = linalg.random_complex(rng, len(basis))
            f = sum(c * b for c, b in zip(coeff, basis))
            blocks = _generalized_eigenspaces(f, tol)
            if blocks is None:
                diagnostics["failed_splits"] += 1
                continue
            pieces = []
            for block in blocks:
                piece = _restrict_to_block(sub, block, tol)
                if piece is None:
                    pieces = None
                    break
                pieces.append((block, piece))
            if pieces is None:
                diagnostics["failed_splits"] += 1
                continue
            for e in sub.poset.elements:
                if sum(p.dim(e) for _, p in pieces) != sub.dim(e):
                    pieces = None
                    break
            if pieces is None:
                diagnostics["failed_splits"] += 1
                continue
            out = []
            for block, piece in pieces:
                for leaf, emb in rec(piece):
                    out.append((leaf, block @ emb))
            return out
        return [(sub, np.eye(d, dtype=complex))]

    result = rec(rep)
    return Decomposition(
        [s for s, _ in result], [m for _, m in result], diagnostics
    )


def decompose(rep: SubspaceRep, seed: int = 0, tol: float = DEFAULT_TOL) -> list[SubspaceRep]:
    """Indecomposable direct summands of the representation."""
    return decompose_full(rep, seed=seed, tol=tol).summands


# ---------------------------------------------------------------------------
# subspace lattice and stability

#: pairs of the lattice closure whose sums, intersections and dedup are
#: batched together: bounds the stacks of one SVD call and the candidates
#: held at once
_PAIR_CHUNK = 64
#: entries of one residual stack of the dedup prefilter at most (512 KB), so
#: that its memory stays bounded however large d0 and the lattice get
_SCREEN_ENTRIES = 1 << 15


def _pair_candidates(
    members: list[np.ndarray], pairs: list[tuple[int, int]], tol: float
) -> list[np.ndarray]:
    """Sum and intersection of every pair of members, in the order sum,
    intersection, pair by pair: one ``linalg.orthonormal_stack`` and one
    intersection SVD per (width, width) group of pairs, the same bases bit
    for bit as ``linalg.subspace_sum`` and ``subspace_intersection``."""
    groups: dict[tuple[int, int], list[int]] = {}
    for p, (i, j) in enumerate(pairs):
        groups.setdefault((members[i].shape[1], members[j].shape[1]), []).append(p)
    out: list = [None] * (2 * len(pairs))
    for ps in groups.values():
        qa = np.stack([members[pairs[p][0]] for p in ps])
        qb = np.stack([members[pairs[p][1]] for p in ps])
        sums = linalg.orthonormal_stack(np.concatenate([qa, qb], axis=2), tol)
        caps = linalg.subspace_intersections(qa, qb, tol)[2]
        for p, s, c in zip(ps, sums, caps):
            out[2 * p], out[2 * p + 1] = s, c
    return out


def _screen(
    q: np.ndarray, block: np.ndarray, n: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The dedup prefilter of a stack q of c bases of width k against n
    bases of width k side by side in ``block`` (d0 x n k): per pair (c x n),
    whether it passes the Frobenius bound that ``linalg.same_subspace``
    implies (hit), and whether both residuals below tol / 2 already decide
    that it is the same subspace (close)."""
    c, d0, k = q.shape
    step = max(1, _SCREEN_ENTRIES // max(1, block.size))
    if c > step:
        parts = [_screen(q[i : i + step], block, n, tol) for i in range(0, c, step)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    # same_subspace(m, q) needs |m - q q* m|_2 <= tol, so
    # |m - q q* m|_F^2 <= k tol^2; the 1e-12 covers the rounding of this
    # product against the one same_subspace forms.
    r = block - q @ (q.conj().transpose(0, 2, 1) @ block)
    frob = (r.real**2 + r.imag**2).reshape(c, d0, n, k).sum(axis=(1, 3))
    hit = frob <= k * (tol + 1e-12) ** 2
    # |.|_2 <= |.|_F: both residuals below tol / 2 decide the pair without
    # an SVD, with a margin far above their rounding
    close = hit & (frob <= tol * tol / 4)
    ci, mi = np.nonzero(close)
    if ci.size:
        m = block.reshape(d0, n, k).transpose(1, 0, 2)[mi]
        back = q[ci] - m @ (m.conj().transpose(0, 2, 1) @ q[ci])
        close[ci, mi] = (back.real**2 + back.imag**2).sum(axis=(1, 2)) <= tol * tol / 4
    return close, hit


def subspace_lattice(
    rep: SubspaceRep, tol: float = DEFAULT_TOL, cap: int = 512
) -> list[np.ndarray]:
    """Closure of {0, V, V_e} under sum and intersection.

    Returns orthonormal bases, deduplicated with ``linalg.same_subspace``,
    sorted by dimension (stable, so in order of discovery within one
    dimension).  Each pass of the closure forms sums and intersections only
    of the pairs that involve a member found in the previous pass; pairs of
    older members were formed before and give nothing new.  Raises
    LatticeTooLarge, carrying the members found so far in the same order,
    when the closure exceeds cap members; the modular lattice generated by
    finitely many subspaces can be infinite in general.

    A pass walks its pairs in order, _PAIR_CHUNK at a time.  A chunk forms
    its sums and intersections with one SVD each per pair of widths.  Its
    candidates are screened with one batched Frobenius prefilter per
    dimension against the members known at the chunk start, and the ones
    left open against each other; only pairs the prefilter leaves
    undecided go through ``linalg.same_subspace``.  The candidates are then
    added in order, each unless it is the same subspace as a member known
    at the chunk start or a candidate added before it.  So the members,
    their order and the point of an overflow are those of adding one
    candidate at a time, bit for bit.
    """
    d0 = rep.ambient_dim
    members: list[np.ndarray] = []
    same_dim: dict[int, list[np.ndarray]] = {}
    # the members of each dimension k side by side, member i in columns
    # i*k to (i+1)*k of a buffer that doubles when full
    blocks: dict[int, np.ndarray] = {}

    def keep(q: np.ndarray) -> None:
        # a copy, so that a member does not hold on to a whole batch's SVD
        q = q.copy()
        k = q.shape[1]
        same = same_dim.setdefault(k, [])
        n = len(same)
        buf = blocks.get(k)
        if buf is None:
            buf = blocks[k] = np.empty((d0, 8 * k), dtype=complex)
        elif (n + 1) * k > buf.shape[1]:
            buf = blocks[k] = np.concatenate([buf, np.empty_like(buf)], axis=1)
        buf[:, n * k : (n + 1) * k] = q
        same.append(q)
        members.append(q)

    def absorb(cands: list[np.ndarray]) -> None:
        """Add the candidates in order, each unless a member matches it."""
        widths: dict[int, list[int]] = {}
        for c, q in enumerate(cands):
            widths.setdefault(q.shape[1], []).append(c)
        # each candidate that no member known at the start decides: its
        # row j among the open candidates of its width, their positions,
        # its screen against rows < j and against the start members, and
        # which rows were added
        pending: dict[int, tuple] = {}
        for k, idx in widths.items():
            q = np.stack([cands[c] for c in idx])
            n = len(same_dim.get(k, ()))
            hit0 = np.zeros((len(idx), 0), dtype=bool)
            if n:
                close, hit0 = _screen(q, blocks[k][:, : n * k], n, tol)
                left = ~close.any(axis=1)
                idx, q, hit0 = [c for c, o in zip(idx, left.tolist()) if o], q[left], hit0[left]
            if not idx:
                continue
            close, hit = _screen(q, q.transpose(1, 0, 2).reshape(d0, -1), len(idx), tol)
            added = np.zeros(len(idx), dtype=bool)
            for j, c in enumerate(idx):
                pending[c] = (j, idx, close[j, :j], hit[j, :j], hit0[j], added)
        for c in sorted(pending):
            j, idx, close, hit, hit0, added = pending[c]
            q = cands[c]
            if (close & added[:j]).any():
                continue
            same = same_dim.get(q.shape[1], [])
            if any(linalg.same_subspace(same[i], q, tol) for i in np.flatnonzero(hit0)):
                continue
            if any(linalg.same_subspace(cands[idx[i]], q, tol)
                   for i in np.flatnonzero(hit & added[:j])):
                continue
            added[j] = True
            keep(q)
            if len(members) > cap:
                members.sort(key=lambda q: q.shape[1])
                raise LatticeTooLarge(f"subspace lattice exceeded cap {cap}", members)

    keep(np.zeros((d0, 0), dtype=complex))
    keep(np.eye(d0, dtype=complex))
    absorb([rep.spans[e] for e in rep.poset.elements])
    done = 0
    while done < len(members):
        size = len(members)
        pairs = ((i, j) for i in range(size) for j in range(max(i + 1, done), size))
        while chunk := list(islice(pairs, _PAIR_CHUNK)):
            absorb(_pair_candidates(members, chunk, tol))
        done = size
    members.sort(key=lambda q: q.shape[1])
    return members


def _width_groups(rep: SubspaceRep) -> list[tuple[list[int], np.ndarray]]:
    """Element positions (poset order) grouped by span width, each group
    with its spans stacked; built once per representation."""
    if rep._groups is None:
        elements = rep.poset.elements
        widths: dict[int, list[int]] = {}
        for i, e in enumerate(elements):
            widths.setdefault(rep.dim(e), []).append(i)
        rep._groups = [
            (idx, np.stack([rep.spans[elements[i]] for i in idx]))
            for idx in widths.values()
        ]
    return rep._groups


def _per_width(fn, mats: list[np.ndarray]) -> list:
    """fn on the stack of the matrices of each column count, which gives
    one result per stacked matrix; the results in the order of mats."""
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape[1], []).append(i)
    out: list = [None] * len(mats)
    for idx in groups.values():
        for i, res in zip(idx, fn(np.stack([mats[i] for i in idx]))):
            out[i] = res
    return out


def _intersections(
    rep: SubspaceRep, qb: np.ndarray, tol: float, bases: bool
) -> tuple[np.ndarray, np.ndarray, list[list[np.ndarray]] | None]:
    """dim(V_e /\\ K) for every basis K of the stack qb (R x d0 x b) and
    every element in poset order (an R x n array), whether every rank guard
    held for each K, and with ``bases`` the V_e /\\ K themselves (for each
    K in poset order); one SVD per span width for the whole stack."""
    n = len(rep.poset.elements)
    dims = np.zeros((len(qb), n), dtype=int)
    guard = np.ones(len(qb), dtype=bool)
    parts = [[None] * n for _ in range(len(qb))] if bases else None
    for idx, stack in _width_groups(rep):
        d, ok, got = linalg.subspace_intersections(stack[None], qb[:, None], tol, bases)
        dims[:, idx] = d
        guard &= ok.all(axis=1)
        if parts is not None:
            for row, got_row in zip(parts, got):
                for i, part in zip(idx, got_row):
                    row[i] = part
    return dims, guard, parts


class _Scorer:
    """f(K) for orthonormal bases K, with the rank guard of the intersections.

    With c = den chi_e the common integer weights, d0 den f(K) is the
    integer d0 sum_e c_e dim(V_e /\\ K) - (sum_e c_e d_e) dim K; dim K is
    the column count of K.  Scores stay these integer numerators over the
    common denominator ``den`` (= d0 den) until a Fraction is asked for.
    """

    def __init__(self, rep: SubspaceRep, w: Weight, tol: float):
        w.aligned(rep.poset)
        d0 = rep.ambient_dim
        if d0 == 0:
            raise WrongShape("slope of the zero representation is undefined")
        c0, c = w.common_integer(rep.poset)
        self.rep, self.tol, self.d0 = rep, tol, d0
        self.den = d0 * (c0 * w.chi0.denominator // w.chi0.numerator)
        self.weights = [c[e] for e in rep.poset.elements]
        self.total = sum(ce * rep.dim(e) for e, ce in zip(rep.poset.elements, self.weights))

    def numerator(self, dims: np.ndarray, width: int) -> int:
        """The numerator for the intersection dimensions of a basis of the
        given width."""
        return self.d0 * sum(map(mul, self.weights, dims.tolist())) - self.total * width

    def __call__(self, bases: list[np.ndarray]) -> list[tuple[int, bool]]:
        """Numerator and rank guard of every basis of the list, from one
        singular-values-only SVD per (basis width, span width)."""

        def stack(qb: np.ndarray):
            dims, guard, _ = _intersections(self.rep, qb, self.tol, bases=False)
            width = qb.shape[2]
            return zip((self.numerator(d, width) for d in dims), guard.tolist())

        return _per_width(stack, bases)

    def best(
        self, scored: list[tuple[int, bool]], bases: list[np.ndarray]
    ) -> tuple[Fraction, np.ndarray] | None:
        """The first basis of largest score, with its score."""
        if not scored:
            return None
        i = max(range(len(scored)), key=lambda j: scored[j][0])
        return Fraction(scored[i][0], self.den), bases[i]


def subspace_score(
    rep: SubspaceRep, w: Weight, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> Fraction:
    """f(K) = sum chi_e dim(V_e /\\ K) - sigma dim K, exact rational, for K
    the span of the columns of basis."""
    score = _Scorer(rep, w, tol)
    return Fraction(score([linalg.orthonormal_columns(basis, tol)])[0][0], score.den)


def _saturate(
    rep: SubspaceRep, bases: list[np.ndarray], tol: float
) -> tuple[list[tuple[np.ndarray, np.ndarray | None, bool]], int]:
    """saturate_subspace of every basis of the list, all in lock step, and
    the number of rounds.

    Each round takes one full intersection SVD per (basis width, span
    width) for the bases still moving.  A basis whose V_e /\\ K are all
    zero stops there; the others' sums of V_e /\\ K are orthonormalized
    with one SVD per shape.  A basis stops when that sum keeps its width
    (the sum is the result) or is zero (the basis is).  Each result comes
    with the intersection dimensions and rank guard of its last round when
    that round saw the result itself, else None and True.
    """
    out: list = [None] * len(bases)
    current = list(bases)
    live = list(range(len(bases)))
    rounds = 0

    def intersect(qb: np.ndarray):
        return zip(*_intersections(rep, qb, tol, bases=True))

    while live:
        rounds += 1
        moving = []
        rows = _per_width(intersect, [current[i] for i in live])
        for i, (dims, guard, parts) in zip(live, rows):
            if dims.any():
                moving.append((i, dims, guard, np.hstack(parts)))
            else:
                out[i] = (current[i], dims, guard)
        sums = _per_width(lambda m: linalg.orthonormal_stack(m, tol), [m[3] for m in moving])
        live = []
        for (i, dims, guard, _), nxt in zip(moving, sums):
            if nxt.shape[1] == 0:
                out[i] = (current[i], dims, guard)
            elif nxt.shape[1] == current[i].shape[1]:
                out[i] = (nxt, None, True)
            else:
                current[i] = nxt
                live.append(i)
    return out, rounds


def saturate_subspace(
    rep: SubspaceRep, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Replace K by sum_e (V_e /\\ K), iterated to a fixed point.

    Keeps every V_e /\\ K while possibly shrinking K, so the score never
    drops (and never drops to a worse witness) as long as the result stays
    nonzero.  The one-basis case of the lock-step saturation of
    ``stability_check``: the same SVDs, so the same basis bit for bit, and
    ``basis`` itself when no V_e meets it.
    """
    return _saturate(rep, [basis], tol)[0][0][0]


#: restarts saturated in lock step at a time: bounds the stacks of one SVD
#: call and the bases held at once (a few MB at d0 = 10)
_RESTART_BATCH = 1024


def _random_search(
    rep: SubspaceRep, score: _Scorer, restarts: int, seed: int
) -> tuple[tuple[Fraction, np.ndarray] | None, bool, dict]:
    """The randomized destabilizer search of ``stability_check``: the best
    (score, K) over the restarts (None without one), whether every rank
    guard of the scored K held, and the counts ``restarts`` (0 when d0 = 1,
    which has no proper subspace), ``saturation_rounds`` and
    ``saturated_moved``.  The restarts run in batches of _RESTART_BATCH in
    draw order, and the first strict maximum of all of them wins."""
    d0, tol = rep.ambient_dim, score.tol
    restarts = restarts if d0 > 1 else 0
    rng = np.random.default_rng(seed)
    best, guard = None, True
    counts = {"restarts": restarts, "saturation_rounds": 0, "saturated_moved": 0}
    for done in range(0, restarts, _RESTART_BATCH):
        draws = []
        for _ in range(min(_RESTART_BATCH, restarts - done)):
            k = int(rng.integers(1, d0))
            draws.append(linalg.random_complex(rng, d0, k))
        starts = _per_width(linalg.orthonormal_stack, draws)
        saturated, rounds = _saturate(rep, starts, tol)
        # the saturated K, or the drawn one when saturation leaves no
        # proper subspace; a K that its last saturation round saw keeps
        # that round's intersections (from the full SVD), the others are
        # scored afresh
        picked = [res if 0 < res[0].shape[1] < d0 else (q, None, True)
                  for q, res in zip(starts, saturated)]
        fresh = iter(score([q for q, dims, _ in picked if dims is None]))
        scored = [next(fresh) if dims is None else (score.numerator(dims, q.shape[1]), g)
                  for q, dims, g in picked]
        candidates = [q for q, _, _ in picked]
        top = score.best(scored, candidates)
        if best is None or top[0] > best[0]:
            best = top
        guard = guard and all(g for _, g in scored)
        counts["saturation_rounds"] += rounds
        counts["saturated_moved"] += sum(
            q.shape[1] < s.shape[1] for q, s in zip(candidates, starts)
        )
    return best, guard, counts


@dataclass
class StabilityOptions:
    tol: float = DEFAULT_TOL
    restarts: int = 200
    seed: int = 0


@dataclass
class StabilityVerdict:
    classification: str
    witness: np.ndarray | None
    methods: tuple[str, ...]
    inconclusive: bool
    best_score: Fraction | None
    trace_identity: bool
    diagnostics: dict = field(default_factory=dict)


def stability_check(
    rep: SubspaceRep, w: Weight, opts: StabilityOptions | None = None
) -> StabilityVerdict:
    """Classify the representation for the given weight.

    Two cooperating procedures: maximization of the score over the lattice
    generated by the V_e (exact given the numerically decided intersection
    dimensions), and a seeded randomized destabilizer search with
    saturation as local improvement (a heuristic: the lattice need not hold
    a maximizer of the score, so the random search may score higher).

    The search draws ``restarts`` random subspaces K (a dimension in
    [1, d0), then a complex Gaussian d0 x k matrix, in that order per
    restart) and orthonormalizes them with one SVD per dimension.  The
    restarts then saturate in lock step, up to 1,024 at a time (see
    ``_saturate``): each round costs one batched SVD per (basis width, span
    width), however many restarts are in it.  Each saturated K (the drawn
    one when saturation leaves no proper subspace) is scored; scores stay
    integer numerators until the end, and the first strict maximum wins.  The lattice members
    go through the same batched scorer, grouped by dimension.  Every basis,
    intersection and score equals that of saturating and scoring one
    restart at a time, bit for bit.  With d0 = 1 there is no proper
    subspace and no search runs; ``methods`` lists ``randomized`` only when
    it ran, and ``diagnostics["restarts"]`` counts the restarts run.

    When the lattice overflows the default cap of ``subspace_lattice`` (512
    members), the members found before the overflow are scored as a
    complete lattice would be (``diagnostics["lattice_size"]`` is None).  A
    positive best score is a certificate of instability either way, so the
    overflow sets ``inconclusive`` only when the best score is 0 or less.
    ``inconclusive`` is also set when the random search finds a score of
    larger sign than the lattice (a destabilizer or tie the lattice
    missed, which changes the verdict), or when a rank guard
    fails: for some scored K, some [V_e, -K] has a different rank at
    0.1*tol, tol or 10*tol, so an intersection dimension hangs on the
    tolerance (``diagnostics["rank_guard_stable"]``).
    ``diagnostics["inconclusive_reasons"]`` lists which of these fired, as
    ``rank_guard``, ``random_excess`` and ``lattice_overflow``; the counts
    ``lattice_scored`` (proper members scored), ``saturation_rounds`` and
    ``saturated_moved`` (restarts whose scored K is smaller than the drawn
    one) say what the search did.

    The verdict "stable" additionally requires the weighted trace identity
    sum chi_e d_e = chi0 d0; ties (score 0) are split into polystable versus
    merely semistable by decomposing into indecomposables and checking the
    identity on every summand.
    """
    opts = opts or StabilityOptions()
    w.aligned(rep.poset)
    if rep.ambient_dim == 0:
        raise WrongShape("stability of the zero representation is undefined")
    d0 = rep.ambient_dim
    trace_ok = w.trace_identity(rep)
    diagnostics: dict = {"sigma": str(w.slope(rep))}

    score = _Scorer(rep, w, opts.tol)
    try:
        members = subspace_lattice(rep, opts.tol)
        diagnostics["lattice_size"] = len(members)
    except LatticeTooLarge as exc:
        members = exc.members
        diagnostics["lattice_size"] = None
    members = [q for q in members if 0 < q.shape[1] < d0]
    lattice_scored = score(members)
    lattice_best = score.best(lattice_scored, members)
    diagnostics["lattice_scored"] = len(members)

    random_best, random_guard, counts = _random_search(rep, score, opts.restarts, opts.seed)
    diagnostics.update(counts)

    guard_ok = random_guard and all(g for _, g in lattice_scored)
    diagnostics["lattice_best"] = None if lattice_best is None else lattice_best[0]
    diagnostics["random_best"] = None if random_best is None else random_best[0]
    diagnostics["rank_guard_stable"] = guard_ok
    reasons = [] if guard_ok else ["rank_guard"]

    def sign(x: Fraction) -> int:
        return (x > 0) - (x < 0)

    if (
        lattice_best is not None
        and random_best is not None
        and sign(random_best[0]) > sign(lattice_best[0])
    ):
        reasons.append("random_excess")
        diagnostics["randomized_excess"] = str(random_best[0] - lattice_best[0])

    best = lattice_best
    if random_best is not None and (best is None or random_best[0] > best[0]):
        best = random_best
    if diagnostics["lattice_size"] is None and (best is None or best[0] <= 0):
        reasons.append("lattice_overflow")
    diagnostics["inconclusive_reasons"] = reasons

    witness: np.ndarray | None = None
    if best is not None and best[0] > 0:
        classification = UNSTABLE
        witness = best[1]
    elif not trace_ok:
        classification = SEMISTABLE_NOT_POLYSTABLE
        diagnostics["trace_identity_failure"] = True
        if best is not None and best[0] == 0:
            witness = best[1]
    elif best is not None and best[0] == 0:
        summands = decompose(rep, seed=opts.seed, tol=opts.tol)
        diagnostics["summand_dims"] = [s.dim_vector() for s in summands]
        poly = all(w.trace_identity(s) for s in summands if s.ambient_dim)
        classification = POLYSTABLE_NOT_STABLE if poly else SEMISTABLE_NOT_POLYSTABLE
        witness = best[1]
    else:
        classification = STABLE

    return StabilityVerdict(
        classification=classification,
        witness=witness,
        methods=("lattice_exact", "randomized") if counts["restarts"] else ("lattice_exact",),
        inconclusive=bool(reasons),
        best_score=None if best is None else best[0],
        trace_identity=trace_ok,
        diagnostics=diagnostics,
    )
