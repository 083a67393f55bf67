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
from math import lcm
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
    stack them once and keep the stacks, and the stability code keeps its
    last intersections.
    """

    __slots__ = ("poset", "ambient_dim", "spans", "_groups", "_last")

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
        self._last: tuple | None = None

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

    def stability_form(self, poset: Poset) -> tuple[Fraction, ...]:
        """The associated linear form (chi0; -chi_e) on dimension vectors."""
        return (self.chi0,) + tuple(-self.chi[e] for e in poset.elements)

    def coadjoint_spectrum(self, e: str, d0: int, de: int) -> tuple[Fraction, ...]:
        """Eigenvalue list (chi_e, ..., chi_e, 0, ..., 0) with de copies."""
        return (self.chi[e],) * de + (Fraction(0),) * (d0 - de)

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

def subspace_lattice(
    rep: SubspaceRep, tol: float = DEFAULT_TOL, cap: int = 512
) -> list[np.ndarray]:
    """Closure of {0, V, V_e} under sum and intersection.

    Returns orthonormal bases, deduplicated with ``linalg.same_subspace``,
    sorted by dimension (stable, so in order of discovery within one
    dimension).  Each pass of the closure forms sums and intersections only
    of the pairs that involve a member found in the previous pass; pairs of
    older members were formed before and give nothing new.  Raises
    LatticeTooLarge when the closure exceeds cap members; the modular
    lattice generated by finitely many subspaces can be infinite in general.
    """
    d0 = rep.ambient_dim
    members: list[np.ndarray] = []
    same_dim: dict[int, list[np.ndarray]] = {}
    # the members of each dimension k side by side, member i in columns
    # i*k to (i+1)*k of a buffer that doubles when full
    blocks: dict[int, np.ndarray] = {}

    def known(q: np.ndarray) -> bool:
        k = q.shape[1]
        same = same_dim.get(k)
        if not same:
            return False
        # same_subspace(m, q) needs |m - q q* m|_2 <= tol, so
        # |m - q q* m|_F^2 <= k tol^2; the 1e-12 covers the rounding of this
        # product against the one same_subspace forms.
        block = blocks[k][:, : len(same) * k]
        r = block - q @ (q.conj().T @ block)
        frob = (r.real**2 + r.imag**2).reshape(d0, len(same), k).sum(axis=(0, 2))
        for i in np.flatnonzero(frob <= k * (tol + 1e-12) ** 2).tolist():
            # |.|_2 <= |.|_F: both residuals below tol / 2 decide the pair
            # without an SVD, with a margin far above their rounding
            m = same[i]
            if frob[i] <= tol * tol / 4:
                back = q - m @ (m.conj().T @ q)
                if (back.real**2 + back.imag**2).sum() <= tol * tol / 4:
                    return True
            if linalg.same_subspace(m, q, tol):
                return True
        return False

    def keep(q: np.ndarray) -> None:
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

    def add(q: np.ndarray) -> None:
        if known(q):
            return
        keep(q)
        if len(members) > cap:
            raise LatticeTooLarge(f"subspace lattice exceeded cap {cap}")

    keep(np.zeros((d0, 0), dtype=complex))
    keep(np.eye(d0, dtype=complex))
    for e in rep.poset.elements:
        add(rep.spans[e])
    done = 0
    while done < len(members):
        size = len(members)
        for i in range(size):
            for j in range(max(i + 1, done), size):
                a, b = members[i], members[j]
                add(linalg.subspace_sum(a, b, tol))
                add(linalg.subspace_intersection(a, b, tol))
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


def _intersections(
    rep: SubspaceRep, basis: np.ndarray, tol: float, bases: bool
) -> tuple[np.ndarray, bool, list[np.ndarray]]:
    """dim(V_e /\\ K) for every element in poset order, whether every rank
    guard held, and with ``bases`` the V_e /\\ K themselves; one SVD per
    span width.

    The last result with bases is kept on the representation, so scoring
    the basis that saturate_subspace just returned unchanged (all
    V_e /\\ K zero) costs no second SVD.
    """
    last = rep._last
    if not bases and last is not None and last[0] is basis and last[1] == tol:
        return last[2], last[3], []
    n = len(rep.poset.elements)
    dims = np.zeros(n, dtype=int)
    parts: list[np.ndarray] = [None] * n if bases else []  # type: ignore[list-item]
    guard = True
    for idx, stack in _width_groups(rep):
        d, ok, got = linalg.subspace_intersections(stack, basis, tol, bases)
        dims[idx] = d
        guard = guard and bool(ok.all())
        if bases:
            for i, part in zip(idx, got):
                parts[i] = part
    if bases:
        rep._last = (basis, tol, dims, guard)
    return dims, guard, parts


def _scorer(rep: SubspaceRep, w: Weight, tol: float):
    """f(K) for orthonormal bases K, with the rank guard of the intersections.

    With c = den chi_e the common integer weights, d0 den f(K) is the
    integer d0 sum_e c_e dim(V_e /\\ K) - (sum_e c_e d_e) dim K; dim K is
    the column count of K.
    """
    w.aligned(rep.poset)
    d0 = rep.ambient_dim
    if d0 == 0:
        raise WrongShape("slope of the zero representation is undefined")
    c0, c = w.common_integer(rep.poset)
    den = c0 * w.chi0.denominator // w.chi0.numerator
    weights = [c[e] for e in rep.poset.elements]
    total = sum(ce * rep.dim(e) for e, ce in zip(rep.poset.elements, weights))

    def score(basis: np.ndarray) -> tuple[Fraction, bool]:
        dims, guard, _ = _intersections(rep, basis, tol, bases=False)
        num = d0 * sum(ce * k for ce, k in zip(weights, dims.tolist()))
        return Fraction(num - total * basis.shape[1], d0 * den), guard

    return score


def subspace_score(
    rep: SubspaceRep, w: Weight, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> Fraction:
    """f(K) = sum chi_e dim(V_e /\\ K) - sigma dim K, exact rational, for K
    the span of the columns of basis."""
    return _scorer(rep, w, tol)(linalg.orthonormal_columns(basis, tol))[0]


def saturate_subspace(
    rep: SubspaceRep, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Replace K by sum_e (V_e /\\ K), iterated to a fixed point.

    Keeps every V_e /\\ K while possibly shrinking K, so the score never
    drops (and never drops to a worse witness) as long as the result stays
    nonzero.
    """
    current = basis
    while True:
        dims, _, parts = _intersections(rep, current, tol, bases=True)
        if not dims.any():
            return current
        nxt = linalg.orthonormal_columns(np.hstack(parts), tol)
        if nxt.shape[1] in (0, current.shape[1]):
            return nxt if nxt.shape[1] else current
        current = nxt


@dataclass
class StabilityOptions:
    tol: float = DEFAULT_TOL
    restarts: int = 200
    seed: int = 0
    use_flow: bool = False
    flow_max_iter: int = 20000


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

    Three cooperating procedures: maximization of the score over the
    lattice generated by the V_e (exact given the numerically decided
    intersection dimensions), a seeded randomized destabilizer search with
    saturation as local improvement (a heuristic: the lattice need not hold
    a maximizer of the score, so the random search may score higher), and
    (optionally) the moment-map flow as an independent polystability oracle.

    ``inconclusive`` is set when the lattice overflows the default cap of
    ``subspace_lattice`` (512 members), when the random search finds a
    score of larger sign than the lattice (a destabilizer or tie the
    lattice missed, which changes the verdict), when the flow oracle
    disagrees (flow at the default tol of FlowOptions), or when a rank
    guard fails: for some scored K, some [V_e, -K] has a different rank at
    0.1*tol, tol or 10*tol, so an intersection dimension hangs on the
    tolerance (``diagnostics["rank_guard_stable"]``).

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
    guard_ok = True
    methods = ["lattice_exact", "randomized"]
    diagnostics: dict = {"sigma": str(w.slope(rep)), "restarts": opts.restarts}
    inconclusive = False

    def proper(q: np.ndarray) -> bool:
        return 0 < q.shape[1] < d0

    score = _scorer(rep, w, opts.tol)
    lattice_best: tuple[Fraction, np.ndarray] | None = None
    try:
        members = subspace_lattice(rep, opts.tol)
        diagnostics["lattice_size"] = len(members)
        for q in members:
            if not proper(q):
                continue
            val, g = score(q)
            guard_ok = guard_ok and g
            if lattice_best is None or val > lattice_best[0]:
                lattice_best = (val, q)
    except LatticeTooLarge:
        diagnostics["lattice_size"] = None
        inconclusive = True

    rng = np.random.default_rng(opts.seed)
    random_best: tuple[Fraction, np.ndarray] | None = None
    if d0 > 1:
        for _ in range(opts.restarts):
            k = int(rng.integers(1, d0))
            q = linalg.random_subspace(rng, d0, k)
            sat = saturate_subspace(rep, q, opts.tol)
            if proper(sat):
                q = sat
            val, g = score(q)
            guard_ok = guard_ok and g
            if random_best is None or val > random_best[0]:
                random_best = (val, q)
    diagnostics["lattice_best"] = None if lattice_best is None else lattice_best[0]
    diagnostics["random_best"] = None if random_best is None else random_best[0]
    diagnostics["rank_guard_stable"] = guard_ok
    if not guard_ok:
        inconclusive = True

    def sign(x: Fraction) -> int:
        return (x > 0) - (x < 0)

    if (
        lattice_best is not None
        and random_best is not None
        and sign(random_best[0]) > sign(lattice_best[0])
    ):
        inconclusive = True
        diagnostics["randomized_excess"] = str(random_best[0] - lattice_best[0])

    best = lattice_best
    if random_best is not None and (best is None or random_best[0] > best[0]):
        best = random_best

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

    if opts.use_flow and trace_ok:
        from .moment import FlowOptions, kempf_ness_flow

        methods.append("flow_oracle")
        _, report = kempf_ness_flow(rep, w, FlowOptions(max_iter=opts.flow_max_iter))
        diagnostics["flow_status"] = report.status
        flow_poly = report.status == "converged"
        class_poly = classification in (STABLE, POLYSTABLE_NOT_STABLE)
        if flow_poly != class_poly:
            inconclusive = True

    return StabilityVerdict(
        classification=classification,
        witness=witness,
        methods=tuple(methods),
        inconclusive=inconclusive,
        best_score=None if best is None else best[0],
        trace_identity=trace_ok,
        diagnostics=diagnostics,
    )
