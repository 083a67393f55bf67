"""Bound quivers attached to posets and their numerical invariants.

The covering quiver of a poset, bound by all commutativity relations (any two
parallel directed paths are identified), has the incidence algebra of the
extended poset as its path algebra quotient.  The ideal is implied by the
quiver, so a bound quiver holds only its quiver: the relation count comes
from a dynamic program over path counts, and the path basis and the
relations are built only when asked for.  This module also computes the
minimal relation counts, the Cartan matrix, the Euler form, and the lower
bound for the dimension of the representation-variety quotient.  The
invariants come in closed form from the order itself (reachability and open
intervals of the extended poset), not from the path algebra.  All of that is
exact integer/rational arithmetic; the only floating point here lives in the
translation between subspace representations and quiver representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    NotHasseQuiver,
    NotSubspaceRep,
    PosetMismatch,
    RelationViolation,
    WrongShape,
)
from .linrep import SubspaceRep, make_rep
from .poset import ROOT, Poset, Quiver, build_poset, connected_components, hasse_quiver

Path = tuple[str, ...]


# ---------------------------------------------------------------------------

class DimVector(NamedTuple):
    """Dimension vector: root entry first, then one entry per poset element
    in stored poset order."""

    entries: tuple[int, ...]

    @property
    def root(self) -> int:
        return self.entries[0]

    def validate(self, poset: Poset) -> "DimVector":
        if len(self.entries) != len(poset) + 1:
            raise WrongShape(
                f"dimension vector has {len(self.entries)} entries, poset needs {len(poset) + 1}"
            )
        if any(d < 0 for d in self.entries):
            raise WrongShape("dimension vector entries must be nonnegative")
        return self

    def by_vertex(self, poset: Poset) -> dict[str, int]:
        self.validate(poset)
        out = {ROOT: self.entries[0]}
        out.update(zip(poset.elements, self.entries[1:]))
        return out

    def is_zero(self) -> bool:
        return not any(self.entries)


@dataclass(frozen=True)
class BoundQuiver:
    """An acyclic covering quiver bound by all commutativity relations.

    The ideal is implied: any two distinct parallel paths are identified, so
    the quiver alone determines it.  :attr:`relation_count`, the number of
    unordered pairs of distinct parallel paths, comes from the path counts
    n(s, t) in one reverse-topological pass over the arrows.  The path basis
    and the relations themselves are built only on first access: each
    relation is an ordered pair of distinct parallel paths (same source,
    same target, both of arrow length >= 2), grouped by endpoints in sorted
    order and ordered by length, then by name, inside a group.

    The invariants below (:func:`minimal_relation_counts`,
    :func:`cartan_matrix` and what is built on them) are closed forms of
    this full ideal.  Build one with :func:`bound_quiver_of` from a poset, or
    with :func:`commutativity_ideal`, which first checks that a given quiver
    is a covering quiver.
    """

    quiver: Quiver

    @cached_property
    def relation_count(self) -> int:
        """Sum over vertex pairs (s, t) of C(n(s, t), 2), with n(s, t) the
        number of paths s -> t of arrow length >= 1."""
        out = self.quiver.out_arrows()
        counts: dict[str, dict[str, int]] = {}
        twice = 0
        for s in reversed(self.quiver.topological_order()):
            n: dict[str, int] = {}
            for u in out[s]:
                n[u] = n.get(u, 0) + 1
                for t, k in counts[u].items():
                    n[t] = n.get(t, 0) + k
            counts[s] = n
            twice += sum(k * (k - 1) for k in n.values())
        return twice // 2

    @cached_property
    def path_basis(self) -> tuple[Path, ...]:
        """Every directed path, trivial ones included, by arrow length and
        then by vertex positions."""
        return tuple(self.quiver.all_paths())

    @cached_property
    def relations(self) -> tuple[tuple[Path, Path], ...]:
        groups: dict[tuple[str, str], list[Path]] = {}
        for p in self.path_basis:
            if len(p) > 1:
                groups.setdefault((p[0], p[-1]), []).append(p)
        return tuple(
            pair
            for _, paths in sorted(groups.items())
            for pair in combinations(sorted(paths, key=lambda p: (len(p), p)), 2)
        )

    def paths(self, src: str, dst: str) -> list[Path]:
        return [p for p in self.path_basis if p[0] == src and p[-1] == dst]


def commutativity_ideal(q: Quiver) -> BoundQuiver:
    """Bind an acyclic quiver by all parallel-path identifications.

    If an arrow s -> t runs parallel to a longer path (t is reachable from
    another out-neighbour of s), the quiver is not a covering quiver (the
    arrow would not be a cover) and the admissible ideal does not exist:
    NotHasseQuiver, naming the least such arrow.
    """
    q.validate()
    out = q.out_arrows()
    reach = q.reachable()
    shortcuts = [
        (s, t) for s, t in q.arrows if any(u != t and t in reach[u] for u in out[s])
    ]
    if shortcuts:
        src, dst = min(shortcuts)
        raise NotHasseQuiver(
            f"arrow {src} -> {dst} is parallel to a longer path; "
            "not a covering quiver"
        )
    return BoundQuiver(q)


def bound_quiver_of(p: Poset) -> BoundQuiver:
    """Covering quiver of the extended poset with its commutativity ideal.

    No shortcut check is needed: a cover a < b has no element strictly
    between, and a maximal element has no arrow into the poset, so no arrow
    of the covering quiver runs parallel to a longer path.
    """
    return BoundQuiver(hasse_quiver(p))


def minimal_relation_counts(bq: BoundQuiver) -> dict[tuple[str, str], int]:
    """Number of minimal relations between each vertex pair.

    r(s, t) = dim Ext^2(S_s, S_t) (Bongartz 1983), and for the incidence
    algebra of the extended poset that is the number of connected components
    of the open interval (s, t), minus one (Cibils 1989, JPAA 56).  The
    components are taken over the quiver arrows inside the interval; a cover
    has an empty interval and r = 0.  Only nonzero entries are returned,
    both endpoints iterated in quiver vertex order.
    """
    q = bq.quiver
    reach = q.reachable()
    counts: dict[tuple[str, str], int] = {}
    for s in q.vertices:
        for t in q.vertices:
            if t not in reach[s]:
                continue
            inside = {v for v in reach[s] if t in reach[v]}
            if len(inside) < 2:
                continue
            arrows = ((a, b) for a, b in q.arrows if a in inside and b in inside)
            r = len(connected_components(inside, arrows)) - 1
            if r:
                counts[(s, t)] = r
    return counts


@dataclass(frozen=True)
class CartanMatrix:
    """Integer matrix of path-space dimensions modulo the relation ideal.

    entry[i][j] counts independent paths from order[i] to order[j] in the
    quotient algebra; order is topological, root last for poset quivers, so
    the matrix is upper unitriangular and integrally invertible.
    """

    order: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.order)
        for i in range(n):
            if self.entries[i][i] != 1:
                raise WrongShape("Cartan matrix must have unit diagonal")
            for j in range(n):
                if j < i and self.entries[i][j] != 0:
                    raise WrongShape("Cartan matrix must be upper triangular")


def cartan_matrix(bq: BoundQuiver) -> CartanMatrix:
    """Cartan matrix of the bound quiver algebra: the zeta matrix of the
    extended poset.

    All parallel paths are identified, so the entry for (s, t) is 1 exactly
    when s = t or t is reachable from s, and 0 otherwise.
    """
    q = bq.quiver
    order = q.topological_order()
    reach = q.reachable()
    entries = tuple(tuple(int(s == t or t in reach[s]) for t in order) for s in order)
    return CartanMatrix(order, entries)


def _vertex_vector(bq: BoundQuiver, d: DimVector) -> dict[str, int]:
    verts = bq.quiver.vertices
    if len(d.entries) != len(verts):
        raise WrongShape(
            f"dimension vector has {len(d.entries)} entries, quiver has {len(verts)} vertices"
        )
    named = {ROOT: d.entries[0]}
    named.update(zip((v for v in verts if v != ROOT), d.entries[1:]))
    return named


def euler_form(bq: BoundQuiver, d: DimVector, e: DimVector | None = None) -> int:
    """Homological bilinear form <d, e> = d^T C^{-1} e, exact integer.

    C is the zeta matrix of the reachability order, so C^{-1} is its Moebius
    function mu (Rota 1964).  x = mu e comes from Moebius inversion in
    integers, x_s = e_s - sum of x_t over the t reachable from s, taken in
    reverse topological order.  For an unbound quiver this reduces to
    sum_q d_q e_q - sum_{arrows i->j} d_i e_j.
    """
    if e is None:
        e = d
    q = bq.quiver
    reach = q.reachable()
    dv = _vertex_vector(bq, d)
    ev = _vertex_vector(bq, e)
    x: dict[str, int] = {}
    for s in reversed(q.topological_order()):
        x[s] = ev[s] - sum(x[t] for t in reach[s])
    return int(sum(dv[s] * xs for s, xs in x.items()))


class QuotientDim(NamedTuple):
    value: int
    empty_quotient: bool


def quotient_dim_lower_bound(
    bq: BoundQuiver, d: DimVector, counts: dict[tuple[str, str], int] | None = None
) -> QuotientDim:
    """Lower bound for the dimension of the representation-variety quotient:

        1 - sum_i d_i^2 + sum_{arrows i->j} d_i d_j - sum_{i,j} r(i,j) d_i d_j

    with r the minimal relation counts, taken from ``counts`` when the
    caller already has them.  The zero vector gives 1 with the
    empty_quotient flag set.
    """
    named = _vertex_vector(bq, d)
    if any(x < 0 for x in d.entries):
        raise WrongShape("dimension vector entries must be nonnegative")
    val = 1 - sum(x * x for x in named.values())
    for s, t in bq.quiver.arrows:
        val += named[s] * named[t]
    if counts is None:
        counts = minimal_relation_counts(bq)
    for (i, j), r in counts.items():
        val -= r * named[i] * named[j]
    return QuotientDim(val, d.is_zero())


# ---------------------------------------------------------------------------
# translation between subspace representations and quiver representations

@dataclass
class QuiverRep:
    """Representation of a bound quiver: one space per vertex, one map per
    arrow, maps stored as (target dim x source dim) complex matrices."""

    bound_quiver: BoundQuiver
    dims: dict[str, int]
    maps: dict[tuple[str, str], np.ndarray]

    def dim_vector(self, poset: Poset) -> DimVector:
        return DimVector((self.dims[ROOT],) + tuple(self.dims[e] for e in poset.elements))


def rep_to_quiver(rep: SubspaceRep) -> QuiverRep:
    """Structure maps of the subspace representation over the bound quiver.

    The root carries the ambient space with the standard basis; each element
    carries its subspace in the stored orthonormal basis; each arrow i -> j
    gets the coordinate matrix of the inclusion V_i <= V_j.
    """
    bq = bound_quiver_of(rep.poset)
    dims = {ROOT: rep.ambient_dim}
    dims.update({e: rep.dim(e) for e in rep.poset.elements})
    maps: dict[tuple[str, str], np.ndarray] = {}
    for s, t in bq.quiver.arrows:
        qs = rep.spans[s]
        maps[(s, t)] = qs.copy() if t == ROOT else rep.spans[t].conj().T @ qs
    return QuiverRep(bq, dims, maps)


def quiver_to_rep(qrep: QuiverRep, tol: float = 1e-9) -> SubspaceRep:
    """Rebuild the subspace representation from quiver data.

    Every structure map must be injective (NotSubspaceRep) and every
    commutativity relation must vanish (RelationViolation); the subspace at
    element i is the image of the composite map along any path i -> root.

    The relations are checked one vertex at a time in reverse topological
    order: once all paths out of each out-neighbour u of s agree, all paths
    s -> t agree exactly when the composites through the arrows s -> u do,
    within tol times the larger norm (at least 1).
    """
    bq = qrep.bound_quiver
    q = bq.quiver
    for (s, t), m in qrep.maps.items():
        if m.shape != (qrep.dims[t], qrep.dims[s]):
            raise WrongShape(f"map for arrow {s}->{t} has shape {m.shape}")
        if qrep.dims[s] and linalg.rank_with_guard(m, tol)[0] < qrep.dims[s]:
            raise NotSubspaceRep(f"structure map for arrow {s} -> {t} is not injective")
    out = q.out_arrows()
    # composite[s][t]: one path s -> t and its map, the first one found
    composite: dict[str, dict[str, tuple[Path, np.ndarray]]] = {}
    for s in reversed(q.topological_order()):
        found: dict[str, tuple[Path, np.ndarray]] = {}
        for u in out[s]:
            a = qrep.maps[(s, u)]
            through = {u: ((s, u), a)}
            through.update({t: ((s,) + p, m @ a) for t, (p, m) in composite[u].items()})
            for t, (p2, m2) in through.items():
                if t not in found:
                    found[t] = (p2, m2)
                    continue
                p1, m1 = found[t]
                scale = max(np.linalg.norm(m1), np.linalg.norm(m2), 1.0)
                if np.linalg.norm(m1 - m2) > tol * scale:
                    raise RelationViolation(f"relation {p1} = {p2} fails")
        composite[s] = found
    spans = {}
    for e in q.vertices:
        if e == ROOT:
            continue
        if ROOT not in composite[e]:
            raise WrongShape(f"vertex {e} has no path to the root")
        comp = composite[e][ROOT][1]
        if qrep.dims[e] and linalg.rank_with_guard(comp, tol)[0] < qrep.dims[e]:
            raise NotSubspaceRep(f"composite map from {e} to the root drops rank")
        spans[e] = comp
    return make_rep(_poset_from_quiver(q), qrep.dims[ROOT], spans, tol=tol)


def _poset_from_quiver(q: Quiver) -> Poset:
    elems = tuple(v for v in q.vertices if v != ROOT)
    covers = [(s, t) for s, t in q.arrows if t != ROOT]
    return build_poset(elems, covers)


# ---------------------------------------------------------------------------
# dimension-assignment search

class AssignmentReport(NamedTuple):
    assignments: tuple[tuple[tuple[tuple[str, int], ...], int], ...]
    target: int | None
    matched: bool


def enumerate_assignments(
    p: Poset, groups: tuple[tuple[int, ...], ...]
) -> list[dict[str, int]]:
    """All nesting-consistent ways to place grouped dimension entries.

    Each group is a multiset of entries for one connected component of the
    poset, components taken in stored element order.  An assignment is kept
    when d_a <= d_b for every order pair a < b.  Duplicate assignments from
    equal entries are removed.
    """
    comps = connected_components(p.elements, p.pairs)
    if len(groups) == 1 and len(comps) != 1 and len(groups[0]) == len(p):
        comps = [list(p.elements)]
    if len(comps) != len(groups) or any(
        len(c) != len(g) for c, g in zip(comps, groups)
    ):
        raise WrongShape("entry groups do not match poset components")
    per_comp: list[list[dict[str, int]]] = []
    for comp, group in zip(comps, groups):
        found: list[dict[str, int]] = []
        seen: set[tuple[int, ...]] = set()
        for perm in permutations(group):
            if perm in seen:
                continue
            seen.add(perm)
            cand = dict(zip(comp, perm))
            if all(
                cand[a] <= cand[b]
                for a, b in p.pairs
                if a in cand and b in cand
            ):
                found.append(cand)
        per_comp.append(found)
    out: list[dict[str, int]] = [{}]
    for found in per_comp:
        out = [dict(base, **extra) for base in out for extra in found]
    return out


def assignment_report(
    p: Poset, root_dim: int, groups: tuple[tuple[int, ...], ...], target: int | None = None
) -> AssignmentReport:
    """Evaluate the quotient dimension bound over all consistent assignments."""
    bq = bound_quiver_of(p)
    counts = minimal_relation_counts(bq)
    rows = []
    matched = False
    for assignment in enumerate_assignments(p, groups):
        d = DimVector((root_dim,) + tuple(assignment[e] for e in p.elements))
        val = quotient_dim_lower_bound(bq, d, counts).value
        if target is not None and val == target:
            matched = True
        rows.append((tuple(sorted(assignment.items())), val))
    return AssignmentReport(tuple(rows), target, matched)
