r"""Subspace representations of posets and the linear side of slope stability.

A representation assigns to each poset element a subspace of a fixed ambient
space, with V_i <= V_j whenever i < j.  A positive rational weight chi (one
entry chi_0 for the ambient space, one entry per element) defines the score

    f(K) = sum_i chi_i dim(V_i /\ K) - sigma dim K,
    sigma = sum_i chi_i dim V_i / dim V,

for proper nonzero subspaces K.  The representation is slope stable when
f(K) < 0 for every such K, semistable when f never becomes positive.  Scores
are computed in exact rational arithmetic from numerically determined
intersection dimensions (``_Scorer``).  ``posetrep.stability`` classifies
from the Kempf-Ness flow alone and scores here only the subspaces the
flow's limit points to.  The lattice closure generated by the V_e
(``subspace_lattice``) and the saturation K -> sum_i (V_i /\ K)
(``saturate_subspace``, which never lowers f, supermodular on the subspace
lattice) are plain library functions that no verdict or command calls.  The
endomorphism algebra (``endomorphism_algebra``) is the Schur test of the
stable verdict and the source of direct-sum splits (``generic_split``,
``decompose``).
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm, ldexp, sqrt
from operator import mul
from sys import float_info
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import linalg
from .errors import (
    LatticeTooLarge,
    NestingViolation,
    RankDeficient,
    WrongShape,
)
from .linalg import DEFAULT_TOL
from .poset import Poset, connected_components


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
    raws = [linalg.as_complex(spans.get(e, np.zeros((ambient_dim, 0))))
            for e in poset.elements]
    for e, raw in zip(poset.elements, raws):
        if raw.shape[0] != ambient_dim:
            raise WrongShape(f"span for {e!r} has {raw.shape[0]} rows, ambient is {ambient_dim}")
    # one batched SVD per span width, bit for bit orthonormal_columns of each
    bases = _per_width(lambda stack: linalg.orthonormal_stack(stack, tol), raws)
    cleaned = dict(zip(poset.elements, bases))
    for e, raw in zip(poset.elements, raws):
        if cleaned[e].shape[1] < raw.shape[1]:
            raise RankDeficient(f"span for {e!r} has rank below its {raw.shape[1]} columns")
    for a, b in poset.pairs:
        res = linalg.inclusion_residual(cleaned[a], cleaned[b])
        if res > tol:
            raise NestingViolation(
                f"V_{a} is not contained in V_{b} (residual {res:.2e} > {tol:.0e})"
            )
    return SubspaceRep(poset, ambient_dim, cleaned)


# ---------------------------------------------------------------------------
# weights

def _fraction(v) -> Fraction:
    """v as a Fraction; one that is already a Fraction is kept, not copied."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _normal_float(v: Fraction) -> float:
    """The float of a positive weight entry; WrongShape when it is not a
    normal float: past the float range, or 0 or subnormal once rounded."""
    try:
        f = float(v)
    except OverflowError:
        f = inf
    if not float_info.min <= f < inf:
        raise WrongShape("weight entries must lie in the range of normal floats, "
                         f"{float_info.min:.4g} to {float_info.max:.4g}")
    return f


class Weight:
    """Positive rational weight: chi0 for the ambient space, chi_e per element.

    ``chi0`` and ``chi`` are the entries as Fractions.  The constructor
    also computes, once, the least common denominator ``_den`` of the
    entries, the integers ``_c0`` = chi0 den and ``_c[e]`` = chi_e den,
    the floats ``_float0`` and ``_float[e]`` of the entries (WrongShape
    when one is not a normal float: the flow works in floats), and ``scale``
    = min(1, least chi_e): the flow is scale-equivariant, so a weight and
    its multiples stop at residuals in proportion to it, and integer
    weights keep 1.  The slope, the trace identity, ``common_integer`` and
    the scores (``_Scorer``) are integer arithmetic on this cache, and a
    Fraction is built only where one is returned.  A weight is not changed
    after construction, so the cache stays that of ``chi0`` and ``chi``.
    """

    __slots__ = ("chi0", "chi", "_den", "_c0", "_c", "_float0", "_float", "scale")

    def __init__(self, chi0, chi: Mapping[str, object]):
        self.chi0 = _fraction(chi0)
        self.chi = {e: _fraction(v) for e, v in chi.items()}
        if self.chi0 <= 0 or any(v <= 0 for v in self.chi.values()):
            raise WrongShape("weight entries must all be positive")
        self._den = den = lcm(self.chi0.denominator, *(v.denominator for v in self.chi.values()))
        self._c0 = self.chi0.numerator * (den // self.chi0.denominator)
        self._c = {e: v.numerator * (den // v.denominator) for e, v in self.chi.items()}
        self._float0 = _normal_float(self.chi0)
        self._float = {e: _normal_float(v) for e, v in self.chi.items()}
        self.scale = min([1.0, *self._float.values()])

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
            extra = [e for e in self.chi if e not in poset.elements]
            raise WrongShape(f"weight does not match poset elements "
                             f"(missing {missing}, extra {extra})")
        return self

    def common_integer(self, poset: Poset) -> tuple[int, dict[str, int]]:
        """Scale to a common denominator: integer weights with the same
        ratios, for a weight aligned with the poset."""
        return self._c0, {e: self._c[e] for e in poset.elements}

    def _total(self, rep: SubspaceRep) -> int:
        """sum chi_e dim V_e times the common denominator."""
        return sum(self._c[e] * rep.dim(e) for e in rep.poset.elements)

    def slope(self, rep: SubspaceRep) -> Fraction:
        """sum chi_e dim V_e / dim V, exact."""
        self.aligned(rep.poset)
        if rep.ambient_dim == 0:
            raise WrongShape("slope of the zero representation is undefined")
        return Fraction(self._total(rep), self._den * rep.ambient_dim)

    def trace_identity(self, rep: SubspaceRep) -> bool:
        """Exact check of sum chi_e d_e == chi0 d0."""
        self.aligned(rep.poset)
        return self._total(rep) == self._c0 * rep.ambient_dim

    def __repr__(self) -> str:
        return f"Weight({self.chi0}; {self.chi})"


# ---------------------------------------------------------------------------
# endomorphisms and direct-sum decomposition

def endomorphism_algebra(rep: SubspaceRep, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of {f : f V_e <= V_e for all e}, as d0 x d0 matrices,
    orthonormal in the Frobenius inner product.

    f maps V_e into itself exactly when Q_e'* f Q_e = 0, with Q_e an
    orthonormal basis of V_e and Q_e' one of its orthogonal complement; in
    column-major vec(f) this is (Q_e^T kron Q_e'*) vec(f) = 0, one block of
    d_e (d0 - d_e) rows per element.  The algebra is the null space of the
    stacked blocks (``linalg.null_space_with_guard``, rank cut at tol times
    the largest singular value).  The Gram matrix of the stack is
    sum_e conj(P_e) kron (I - P_e), the same as that of the Kronecker system
    (I - P_e) f P_e = 0, so the singular values, and with them the rank cut,
    are those of that system; but the stack has sum_e d_e (d0 - d_e) rows
    instead of n d0^2.  The cut is on singular values: eigenvalues of the
    Gram matrix carry an absolute error of about eps, which is sqrt(eps)
    on the singular-value scale, far above tol.  The complex dimension of
    the algebra is the length of the returned list.
    """
    return _endomorphisms(rep, tol)[0]


def _endomorphisms(rep: SubspaceRep, tol: float) -> tuple[list[np.ndarray], bool]:
    """endomorphism_algebra, and whether its dimension is the same at
    0.1*tol and 10*tol (``linalg.null_space_with_guard``)."""
    d0 = rep.ambient_dim
    if d0 == 0:
        return [], True
    blocks = []
    for _, stack in _width_groups(rep):
        k = stack.shape[2]
        if k in (0, d0):
            continue  # constraint is vacuous
        comp = np.linalg.qr(stack, mode="complete")[0][:, :, k:]
        # (Q^T kron Q'*)[(a, b), (i, j)] = Q[i, a] conj(Q'[j, b]), with
        # vec(f)[i d0 + j] = f[j, i] (column-major)
        blocks.append(np.einsum("nia,njb->nabij", stack, comp.conj()).reshape(-1, d0 * d0))
    if not blocks:
        ns, guard = np.eye(d0 * d0, dtype=complex), True
    else:
        ns, guard = linalg.null_space_with_guard(np.concatenate(blocks), tol)
    return [ns[:, k].reshape((d0, d0), order="F") for k in range(ns.shape[1])], guard


class Decomposition(NamedTuple):
    summands: list[SubspaceRep]
    embeddings: list[np.ndarray]


#: draws of a generic endomorphism per split at most
_SPLIT_DRAWS = 4


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


def _split_blocks(rep: SubspaceRep, ends: list[np.ndarray], tol: float):
    """The generalized eigenspaces of each of _SPLIT_DRAWS generic elements
    f of the span of ``ends``, drawn from a generator fixed at seed 0, that
    split cleanly and along which every V_e splits: the dimensions of the
    V_e /\\ block, from singular values only (one batched SVD per block and
    span width), add up to dim V_e."""
    rng = np.random.default_rng(0)
    for _ in range(_SPLIT_DRAWS):
        coeff = linalg.random_complex(rng, len(ends))
        blocks = _generalized_eigenspaces(sum(c * b for c, b in zip(coeff, ends)), tol)
        if blocks is None:
            continue
        dims = np.zeros(len(rep.poset.elements), dtype=int)
        for block in blocks:
            for idx, spans in _width_groups(rep):
                dims[idx] += linalg.subspace_intersections(spans, block, tol, bases=False)[0]
        if dims.tolist() == [rep.dim(e) for e in rep.poset.elements]:
            yield blocks


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


def generic_split(
    rep: SubspaceRep, ends: list[np.ndarray], tol: float = DEFAULT_TOL
) -> list[tuple[np.ndarray, SubspaceRep]] | None:
    """The direct-sum split of the representation along the generalized
    eigenspaces of a generic element f of the span of ``ends``, a basis of
    its endomorphism algebra: (block, summand) pairs, each block an
    isometric embedding of the summand's ambient space.  The spectral
    projections of f are polynomials in f, so they map every V_e into
    itself, and V_e is the sum of its intersections with the blocks.

    f is drawn up to _SPLIT_DRAWS times from a generator fixed at seed 0,
    so the split is deterministic.  A draw does not split cleanly when f
    has one eigenvalue cluster, when dim V_e is not the sum of the
    dimensions of its intersections with the blocks for some e
    (``_split_blocks``), or when the intersections with a block do not
    form a representation; None when no draw does.
    """
    for blocks in _split_blocks(rep, ends, tol):
        pieces = [_restrict_to_block(rep, block, tol) for block in blocks]
        if all(p is not None for p in pieces):
            return list(zip(blocks, pieces))
    return None


def decompose_full(rep: SubspaceRep, tol: float = DEFAULT_TOL) -> Decomposition:
    """Split into indecomposable summands.

    Splits along a generic endomorphism (``generic_split``) and recurses
    until each block has a one-dimensional endomorphism algebra or refuses
    to split further.  Deterministic: every split draws from the same
    fixed generator.  Returns the summands together with isometric
    embeddings of their ambient spaces.
    """

    def rec(sub: SubspaceRep) -> list[tuple[SubspaceRep, np.ndarray]]:
        d = sub.ambient_dim
        if d == 0:
            return []
        basis = endomorphism_algebra(sub, tol)
        pieces = generic_split(sub, basis, tol) if len(basis) > 1 else None
        if pieces is None:
            return [(sub, np.eye(d, dtype=complex))]
        return [(leaf, block @ emb) for block, piece in pieces for leaf, emb in rec(piece)]

    result = rec(rep)
    return Decomposition([s for s, _ in result], [m for _, m in result])


def decompose(rep: SubspaceRep, tol: float = DEFAULT_TOL) -> list[SubspaceRep]:
    """Indecomposable direct summands of the representation."""
    return decompose_full(rep, tol=tol).summands


# ---------------------------------------------------------------------------
# subspace lattice and stability

def subspace_lattice(
    rep: SubspaceRep, tol: float = DEFAULT_TOL, cap: int = 512
) -> list[np.ndarray]:
    """Closure of {0, V, V_e} under sum and intersection.

    Returns orthonormal bases, deduplicated with ``linalg.same_subspace``,
    sorted by dimension (stable, so in order of discovery within one
    dimension).  Each pass of the closure forms sums and intersections only
    of the pairs that involve a member found in the previous pass; pairs of
    older members were formed before and give nothing new.  A candidate is
    added unless it is the same subspace as a member.  Raises
    LatticeTooLarge, carrying the members found so far in the same order,
    when the closure exceeds cap members; the modular lattice generated by
    finitely many subspaces can be infinite in general.

    The cost is one SVD each for the sum and the intersection of a pair,
    and one ``linalg.same_subspace`` per member per candidate (two SVDs
    where the dimensions agree).
    """
    d0 = rep.ambient_dim
    members = [np.zeros((d0, 0), dtype=complex), np.eye(d0, dtype=complex)]

    def add(q: np.ndarray) -> None:
        if any(linalg.same_subspace(m, q, tol) for m in members):
            return
        members.append(q)
        if len(members) > cap:
            members.sort(key=lambda q: q.shape[1])
            raise LatticeTooLarge(f"subspace lattice exceeded cap {cap}", members)

    for e in rep.poset.elements:
        add(rep.spans[e])
    done = 0
    while done < len(members):
        size = len(members)
        for i in range(size):
            for j in range(max(i + 1, done), size):
                add(linalg.subspace_sum(members[i], members[j], tol))
                add(linalg.subspace_intersection(members[i], members[j], tol))
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


def _float_shift(n: int) -> tuple[float, int]:
    """A positive int n as m 2^s: (float(n), 0) where n fits a float, else
    s = bit length - 1000 and m the correctly rounded n / 2^s (int / int
    rounds correctly), so that n can divide a float without ever becoming
    one; float / n raises OverflowError there."""
    try:
        return float(n), 0
    except OverflowError:
        s = n.bit_length() - 1000
        return n / (1 << s), s


class _Scorer:
    """f(K) for orthonormal bases K, with the rank guard of the intersections.

    With den the weight's common denominator and c_e = den chi_e its
    integer weights (both kept by ``Weight``), d0 den f(K) is the integer
    d0 sum_e c_e dim(V_e /\\ K) - (sum_e c_e d_e) dim K; dim K is the
    column count of K.  Scores stay these integer numerators over the
    common denominator ``den`` (= d0 times the weight's den) until a
    Fraction is asked for.  ``den_scaled`` is den as m 2^s
    (``_float_shift``), for the floats divided by den where den passes the
    float range.
    """

    def __init__(self, rep: SubspaceRep, w: Weight, tol: float):
        w.aligned(rep.poset)
        d0 = rep.ambient_dim
        if d0 == 0:
            raise WrongShape("slope of the zero representation is undefined")
        self.rep, self.tol, self.d0 = rep, tol, d0
        self.den = d0 * w._den
        self.weights = [w._c[e] for e in rep.poset.elements]
        self.total = w._total(rep)
        # the least dual bound a positive score gives, f sqrt(d0 / (k (d0 - k)))
        # at f = 1 / den and k = d0 / 2: a residual of mu under it certifies
        # semistability at any metric (``stability``); 2 / (den sqrt(d0))
        # bit for bit where den fits a float (s = 0)
        self.den_scaled = m, s = _float_shift(self.den)
        self.floor = ldexp(2 / (m * sqrt(d0)), -s)

    def numerator(self, dims: np.ndarray, width: int) -> int:
        """The numerator for the intersection dimensions of a basis of the
        given width."""
        return self.d0 * sum(map(mul, self.weights, dims.tolist())) - self.total * width

    def __call__(self, bases: list[np.ndarray]) -> list[tuple[int, bool]]:
        """Numerator and rank guard of every basis of the list, from one
        singular-values-only SVD per (basis width, span width)."""

        def stack(qb: np.ndarray):
            # dim(V_e /\ K) for every K of the stack and every element in
            # poset order, and whether every rank guard of K held
            dims = np.zeros((len(qb), len(self.weights)), dtype=int)
            guard = np.ones(len(qb), dtype=bool)
            for idx, spans in _width_groups(self.rep):
                d, ok, _ = linalg.subspace_intersections(spans[None], qb[:, None], self.tol,
                                                         bases=False)
                dims[:, idx] = d
                guard &= ok.all(axis=1)
            width = qb.shape[2]
            return zip((self.numerator(d, width) for d in dims), guard.tolist())

        return _per_width(stack, bases)


def subspace_score(
    rep: SubspaceRep, w: Weight, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> Fraction:
    """f(K) = sum chi_e dim(V_e /\\ K) - sigma dim K, exact rational, for K
    the span of the columns of basis."""
    score = _Scorer(rep, w, tol)
    return Fraction(score([linalg.orthonormal_columns(basis, tol)])[0][0], score.den)


def saturate_subspace(
    rep: SubspaceRep, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Replace K by sum_e (V_e /\\ K), iterated to a fixed point.

    Keeps every V_e /\\ K while possibly shrinking K, so the score never
    drops (and never drops to a worse witness) as long as the result stays
    nonzero.  Each round takes one intersection per element and
    orthonormalizes their sum; ``basis`` itself comes back when no V_e
    meets it.
    """
    current = basis
    while True:
        parts = [linalg.subspace_intersection(rep.spans[e], current, tol)
                 for e in rep.poset.elements]
        if not any(part.shape[1] for part in parts):
            return current
        nxt = linalg.orthonormal_columns(np.hstack(parts), tol)
        if nxt.shape[1] == current.shape[1]:
            return nxt
        current = nxt
