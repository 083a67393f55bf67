"""Finite posets, their covering quivers, and representation-finiteness.

A poset here is a finite set of named elements with a strict partial order.
Every poset is silently extended by a maximal element ``*`` when we pass to
quivers: the covering quiver has one vertex per element plus ``*``, one arrow
for each covering pair, and one arrow from each maximal element into ``*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import CycleError, DuplicateElement, InvalidElement

ROOT = "*"


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise InvalidElement(f"element id must be a non-empty string, got {name!r}")
    if name == ROOT:
        raise InvalidElement(f"element id {ROOT!r} is reserved for the added maximum")
    if any(ch.isspace() for ch in name) or "<" in name or "," in name or ";" in name:
        raise InvalidElement(f"element id {name!r} contains whitespace or a delimiter")
    return name


class Poset:
    """Immutable finite poset.

    ``elements`` keeps construction order; that order fixes how dimension
    vectors and file formats index the elements.  ``pairs`` is the full strict
    order, i.e. the set of (a, b) with a < b, always transitively closed.
    Construct through :func:`build_poset` unless the pairs are already closed.
    """

    __slots__ = ("elements", "pairs", "_below", "_above")

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple[str, str]]):
        elements = tuple(elements)
        seen = set()
        for e in elements:
            _check_name(e)
            if e in seen:
                raise DuplicateElement(f"element {e!r} listed twice")
            seen.add(e)
        pairs = frozenset(pairs)
        below: dict[str, set[str]] = {e: set() for e in elements}
        above: dict[str, set[str]] = {e: set() for e in elements}
        for a, b in pairs:
            if a not in seen or b not in seen:
                raise InvalidElement(f"order pair ({a!r}, {b!r}) uses unknown element")
            if a == b:
                raise CycleError(f"element {a!r} compares below itself")
            above[a].add(b)
            below[b].add(a)
        for a, b in pairs:
            for c in above[b]:
                if c == a:
                    raise CycleError(f"cycle through {a!r} and {b!r}")
                if c not in above[a]:
                    raise ValueError("order pairs are not transitively closed")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_above", above)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poset is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return frozenset(self.elements) == frozenset(other.elements) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((frozenset(self.elements), self.pairs))

    def __repr__(self) -> str:
        return f"Poset({list(self.elements)}, {sorted(self.pairs)})"

    def precedes(self, a: str, b: str) -> bool:
        """True when a < b in the strict order."""
        return (a, b) in self.pairs

    def comparable(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.pairs or (b, a) in self.pairs

    def covers(self) -> tuple[tuple[str, str], ...]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        out = []
        for a, b in self.pairs:
            if not (self._above[a] & self._below[b]):
                out.append((a, b))
        order = {e: k for k, e in enumerate(self.elements)}
        out.sort(key=lambda p: (order[p[0]], order[p[1]]))
        return tuple(out)

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if not self._above[e])

    def linear_extension(self) -> tuple[str, ...]:
        """Elements reordered so that a < b implies a comes first (stable)."""
        remaining = list(self.elements)
        placed: list[str] = []
        placed_set: set[str] = set()
        while remaining:
            for e in remaining:
                if self._below[e] <= placed_set:
                    placed.append(e)
                    placed_set.add(e)
                    remaining.remove(e)
                    break
            else:  # pragma: no cover - impossible for a valid order
                raise CycleError("no linear extension exists")
        return tuple(placed)


def connected_components(items: Iterable, edges: Iterable[tuple]) -> list[list]:
    """Connected components of the graph on ``items`` with the given edges.

    Union-find; each component lists its items in the given order and the
    components come in the order of their first item.
    """
    items = list(items)
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def build_poset(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from element ids and generating pairs a < b.

    The pairs need not be covering pairs; the transitive closure is taken.
    The element ids and the closed order are validated by :class:`Poset`:
    CycleError when the closure forces x < x, DuplicateElement on repeated
    ids, InvalidElement on a malformed id.
    """
    elements = tuple(elements)
    succ: dict[str, set[str]] = {e: set() for e in elements}
    for a, b in covers:
        if a not in succ or b not in succ:
            raise InvalidElement(f"cover ({a!r}, {b!r}) uses unknown element")
        succ[a].add(b)
    # Warshall closure on the successor sets.
    for k in elements:
        for a in elements:
            if k in succ[a]:
                succ[a] |= succ[k]
    return Poset(elements, ((a, b) for a in elements for b in succ[a]))


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver: vertex tuple plus (source, target) arrows.

    The out-neighbours, the topological order and the reachable sets are
    worked out once per quiver, on first use, and shared by every later
    call; callers must not change what these methods return.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    def validate(self) -> "Quiver":
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise DuplicateElement("quiver has a repeated vertex")
        seen = set()
        for a in self.arrows:
            if a[0] not in vs or a[1] not in vs:
                raise InvalidElement(f"arrow {a} uses unknown vertex")
            if a in seen:
                raise DuplicateElement(f"arrow {a} listed twice")
            seen.add(a)
        self.topological_order()
        return self

    def out_arrows(self) -> dict[str, list[str]]:
        return self._out

    def topological_order(self) -> tuple[str, ...]:
        """Stable topological order: each step takes the ready vertex that
        comes first in the vertex tuple.  Raises CycleError on a directed
        cycle."""
        return self._order

    def reachable(self) -> dict[str, frozenset[str]]:
        """For each vertex, the vertices at the end of a path of length >= 1
        from it; one pass in reverse topological order."""
        return self._reach

    @cached_property
    def _out(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for s, t in self.arrows:
            out[s].append(t)
        return out

    @cached_property
    def _order(self) -> tuple[str, ...]:
        indeg = {v: 0 for v in self.vertices}
        for _, t in self.arrows:
            indeg[t] += 1
        out = self._out
        pos = {v: i for i, v in enumerate(self.vertices)}
        order: list[str] = []
        ready = [i for i, v in enumerate(self.vertices) if indeg[v] == 0]
        while ready:
            v = self.vertices[heappop(ready)]
            order.append(v)
            for t in out[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    heappush(ready, pos[t])
        if len(order) != len(self.vertices):
            raise CycleError("quiver has a directed cycle")
        return tuple(order)

    @cached_property
    def _reach(self) -> dict[str, frozenset[str]]:
        out = self._out
        reach: dict[str, frozenset[str]] = {}
        for v in reversed(self._order):
            found = set(out[v])
            for t in out[v]:
                found |= reach[t]
            reach[v] = frozenset(found)
        return reach

    def paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        """All directed paths src -> dst as vertex tuples (trivial included)."""
        return [p for p in self.paths_from(src) if p[-1] == dst]

    def paths_from(self, src: str) -> list[tuple[str, ...]]:
        out = self.out_arrows()
        found: list[tuple[str, ...]] = []
        stack: list[tuple[str, ...]] = [(src,)]
        while stack:
            p = stack.pop()
            found.append(p)
            for t in out[p[-1]]:
                stack.append(p + (t,))
        return found

    def all_paths(self) -> list[tuple[str, ...]]:
        res: list[tuple[str, ...]] = []
        for v in self.vertices:
            res.extend(self.paths_from(v))
        res.sort(key=lambda p: (len(p), tuple(self.vertices.index(x) for x in p)))
        return res


def hasse_quiver(p: Poset) -> Quiver:
    """Covering quiver of the poset extended by a maximum ``*``.

    One vertex per element plus ``*``; arrows are the covering pairs, oriented
    upward, together with one arrow m -> ``*`` for each maximal element m.
    The empty poset gives the one-vertex quiver.
    """
    arrows = list(p.covers())
    arrows.extend((m, ROOT) for m in p.maximal_elements())
    return Quiver(p.elements + (ROOT,), tuple(arrows)).validate()


class PrimitivityResult(NamedTuple):
    primitive: bool
    profile: tuple[int, ...] | None


def is_primitive(p: Poset) -> PrimitivityResult:
    """Test whether the poset is a disjoint union of chains.

    Returns the chain-length profile sorted ascending when it is.  Equivalent
    to the covering quiver being star shaped: every non-root vertex then has
    exactly one outgoing arrow and at most one incoming arrow.
    """
    profile = []
    for comp in connected_components(p.elements, p.pairs):
        for a, b in combinations(comp, 2):
            if not p.comparable(a, b):
                return PrimitivityResult(False, None)
        profile.append(len(comp))
    return PrimitivityResult(True, tuple(sorted(profile)))


def primitive_poset(*chain_lengths: int) -> Poset:
    """Disjoint union of chains with the given lengths.

    Elements are named a1, a2, ... across the chains in the order given, each
    chain ordered bottom to top.  primitive_poset(1, 2) has elements a1 and
    a2 < a3.
    """
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    k = 0
    for n in chain_lengths:
        if n < 1:
            raise ValueError("chain lengths must be positive")
        chain = [f"a{k + i + 1}" for i in range(n)]
        k += n
        elements.extend(chain)
        covers.extend(zip(chain, chain[1:]))
    return build_poset(elements, covers)


def n_poset() -> Poset:
    """The four-element zigzag: n1 < n2, n3 < n2, n3 < n4."""
    return build_poset(
        ["n1", "n2", "n3", "n4"], [("n1", "n2"), ("n3", "n2"), ("n3", "n4")]
    )


def n4_poset() -> Poset:
    """Disjoint union of the zigzag and a four-element chain c1 < ... < c4."""
    elems = ["n1", "n2", "n3", "n4", "c1", "c2", "c3", "c4"]
    covers = [
        ("n1", "n2"),
        ("n3", "n2"),
        ("n3", "n4"),
        ("c1", "c2"),
        ("c2", "c3"),
        ("c3", "c4"),
    ]
    return build_poset(elems, covers)


#: Minimal posets of infinite representation type (Kleiner's list).  A finite
#: poset has finitely many indecomposable subspace representations iff it
#: contains no full subposet isomorphic to one of these.
CRITICAL_POSETS: tuple[tuple[str, Poset], ...] = (
    ("(1,1,1,1)", primitive_poset(1, 1, 1, 1)),
    ("(2,2,2)", primitive_poset(2, 2, 2)),
    ("(1,3,3)", primitive_poset(1, 3, 3)),
    ("(1,2,5)", primitive_poset(1, 2, 5)),
    ("(N,4)", n4_poset()),
)


def _invariant(p: Poset, e: str) -> tuple[int, int]:
    return (len(p._below[e]), len(p._above[e]))


def order_isomorphic(p: Poset, q: Poset) -> bool:
    """Backtracking order-isomorphism test for small posets."""
    if len(p) != len(q) or len(p.pairs) != len(q.pairs):
        return False
    pinv = {e: _invariant(p, e) for e in p.elements}
    qinv = {e: _invariant(q, e) for e in q.elements}
    if sorted(pinv.values()) != sorted(qinv.values()):
        return False
    q_by_inv: dict[tuple[int, int], list[str]] = {}
    for e in q.elements:
        q_by_inv.setdefault(qinv[e], []).append(e)
    # Match most constrained elements first.
    p_order = sorted(p.elements, key=lambda e: len(q_by_inv[pinv[e]]))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def extend(k: int) -> bool:
        if k == len(p_order):
            return True
        a = p_order[k]
        for b in q_by_inv[pinv[a]]:
            if b in used:
                continue
            ok = True
            for c, d in assignment.items():
                if p.precedes(a, c) != q.precedes(b, d) or p.precedes(c, a) != q.precedes(d, b):
                    ok = False
                    break
            if ok:
                assignment[a] = b
                used.add(b)
                if extend(k + 1):
                    return True
                del assignment[a]
                used.remove(b)
        return False

    return extend(0)


class FinitenessResult(NamedTuple):
    finite: bool
    witnesses: tuple[tuple[str, tuple[str, ...]], ...]


class _EmbeddingPlan(NamedTuple):
    """How :func:`_embedded_subsets` maps one critical poset, position by
    position: the (below, above) counts of each position, its links to the
    earlier positions as (position, relation) pairs with relation _BELOW or
    _APART (the earlier element lies below it or is incomparable to it),
    and the earlier position whose image must have a smaller index (-1 for
    none)."""

    counts: tuple[tuple[int, int], ...]
    links: tuple[tuple[tuple[int, int], ...], ...]
    after: tuple[int, ...]


_BELOW, _APART = range(2)


def _embedding_plan(crit: Poset) -> _EmbeddingPlan:
    """Placement order for the embedding search and what each position
    asks of its image.

    The components go largest first, each in linear-extension order, so the
    longest chain of (1,2,5) and a four-element component of (N,4) are
    placed before anything else and a poset without one fails at once.  No
    earlier position then lies above a later one: each earlier position is
    below the new one or incomparable to it.

    Chain components of equal length are interchangeable; their bottoms are
    placed in increasing index order, so each image subset is reached by one
    embedding instead of one per permutation of the chains.
    """
    comps = connected_components(crit.elements, crit.pairs)
    rank = {c: k for k, c in enumerate(crit.linear_extension())}
    order = [c for comp in sorted(comps, key=len, reverse=True)
             for c in sorted(comp, key=rank.get)]
    pos = {c: k for k, c in enumerate(order)}

    links = tuple(
        tuple((k, _BELOW if crit.precedes(c, j) else _APART)
              for k, c in enumerate(order[:pos[j]]))
        for j in order
    )
    after = [-1] * len(order)
    bottoms: dict[int, list[int]] = {}
    for comp in comps:
        if all(crit.comparable(a, b) for a, b in combinations(comp, 2)):
            bottoms.setdefault(len(comp), []).append(min(pos[c] for c in comp))
    for same in bottoms.values():
        same.sort()
        for a, b in zip(same, same[1:]):
            after[b] = a
    return _EmbeddingPlan(tuple(_invariant(crit, c) for c in order), links, tuple(after))


#: (name, embedding plan) for each critical poset, in list order.
_PLANS = tuple((name, _embedding_plan(crit)) for name, crit in CRITICAL_POSETS)
#: Every (below, above) count that some plan asks of an image.
_COUNT_CLASSES = frozenset(c for _, plan in _PLANS for c in plan.counts)


def _embedded_subsets(p: Poset, plan: _EmbeddingPlan, tables: tuple[list[int], ...],
                      fits: dict[tuple[int, int], int]) -> list[tuple[str, ...]]:
    """Element subsets of p whose full subposet is isomorphic to the
    critical poset of ``plan``, in the order :func:`itertools.combinations`
    yields them.

    Backtracking over induced embeddings with element sets as bitmasks.  The
    candidates for a position are one mask: the elements with at least its
    (below, above) counts (``fits``), cut by the up-set or the incomparable
    set (``tables``, by relation) of the image of each earlier position,
    and by the symmetry break of equal chains.  Each of those sets leaves
    out the image it is taken from, so no element is used twice, and every
    candidate extends a valid partial embedding.
    """
    k = len(plan.counts)
    last = k - 1
    start = [fits[c] for c in plan.counts]
    links = [tuple((c, tables[rel]) for c, rel in pairs) for pairs in plan.links]
    after = plan.after
    image = [0] * k
    found: set[int] = set()

    def place(j: int, used: int) -> None:
        cand = start[j]
        for c, table in links[j]:
            cand &= table[image[c]]
        if after[j] >= 0:
            cand &= -1 << (image[after[j]] + 1)
        if j == last:
            while cand:
                bit = cand & -cand
                cand ^= bit
                found.add(used | bit)
            return
        while cand:
            bit = cand & -cand
            cand ^= bit
            image[j] = bit.bit_length() - 1
            place(j + 1, used | bit)

    if k <= len(p):
        place(0, 0)
    subsets = sorted(tuple(i for i in range(len(p)) if m >> i & 1) for m in found)
    return [tuple(p.elements[i] for i in s) for s in subsets]


def is_representation_finite(p: Poset) -> FinitenessResult:
    """Search for full subposets isomorphic to a critical poset.

    Returns finite=True with no witnesses, or finite=False with every
    (critical name, element subset) found: critical posets in list order,
    the subsets of each in the order of ascending stored-element indices.
    The order of p is read once into bitmasks (up-set and incomparable set
    of each element, and the elements with at least each (below, above)
    count the plans ask for); each critical poset is then
    mapped into p by its plan, built at import (see
    :func:`_embedding_plan` and :func:`_embedded_subsets`), so the cost
    follows the number of valid partial embeddings, not of all subsets.
    """
    index = {e: i for i, e in enumerate(p.elements)}
    up = [sum(1 << index[b] for b in p._above[e]) for e in p.elements]
    down = [sum(1 << index[b] for b in p._below[e]) for e in p.elements]
    everything = (1 << len(p)) - 1
    apart = [everything & ~(up[i] | down[i] | 1 << i) for i in range(len(p))]
    tables = (up, apart)  # indexed by _BELOW, _APART
    inv = [_invariant(p, e) for e in p.elements]
    fits = {
        (nb, na): sum(1 << i for i, (b, a) in enumerate(inv) if b >= nb and a >= na)
        for nb, na in _COUNT_CLASSES
    }
    witnesses = [
        (name, subset)
        for name, plan in _PLANS
        for subset in _embedded_subsets(p, plan, tables, fits)
    ]
    return FinitenessResult(not witnesses, tuple(witnesses))
