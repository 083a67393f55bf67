"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own algorithms so tests
compare two separately written routes: poset enumeration by brute force,
representation-finiteness and its witness list by permutation search against
a hard-coded critical list, the bound-quiver invariants by exact rational
elimination on the path space, the inverse Cartan matrix by back
substitution, the subspace lattice and the stability score by pairwise
closure and one intersection SVD per element, the moment map by one SVD per
element, the trace words by one product per word from scratch, and a
fixed-step reference flow with its own projector and moment computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

import posetrep as pr


# ---------------------------------------------------------------------------
# exhaustive poset enumeration (independent of posetrep.build_poset)

def all_strict_orders(n: int) -> list[set[tuple[int, int]]]:
    """Every strict partial order on {0, ..., n-1}, as sets of pairs."""
    items = list(range(n))
    ordered_pairs = [(i, j) for i in items for j in items if i != j]
    out = []
    for bits in range(1 << len(ordered_pairs)):
        rel = {p for k, p in enumerate(ordered_pairs) if bits >> k & 1}
        if any((b, a) in rel for a, b in rel):
            continue
        if any(
            (a, c) not in rel
            for a, b in rel
            for b2, c in rel
            if b == b2 and a != c
        ):
            continue
        if any((a, c) in rel and (c, a) in rel for a in items for c in items):
            continue
        out.append(rel)
    return out


def poset_from_pairs(n: int, rel: set[tuple[int, int]]) -> pr.Poset:
    names = [f"x{i}" for i in range(n)]
    return pr.build_poset(names, [(names[a], names[b]) for a, b in rel])


# ---------------------------------------------------------------------------
# representation-finiteness oracle: permutation search over a literal list

_CRITICAL_RELATIONS: tuple[tuple[str, int, frozenset[tuple[int, int]]], ...] = (
    # name, element count, strict order pairs on range(count)
    ("(1,1,1,1)", 4, frozenset()),  # four incomparable points
    ("(2,2,2)", 6, frozenset({(0, 1), (2, 3), (4, 5)})),  # three 2-chains
    ("(1,3,3)", 7, frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)})),
    ("(1,2,5)", 8, frozenset({(1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 5),
                              (3, 6), (3, 7), (4, 6), (4, 7), (5, 7)})),
    # zigzag (a < b, c < b, c < d) next to a 4-chain
    ("(N,4)", 8, frozenset({(0, 1), (2, 1), (2, 3), (4, 5), (5, 6), (6, 7),
                            (4, 6), (4, 7), (5, 7)})),
)


def _embeds(sub_n: int, sub_rel: frozenset, p: pr.Poset) -> bool:
    elems = p.elements
    pairs = p.pairs
    for subset in combinations(range(len(elems)), sub_n):
        for perm in permutations(subset):
            image = [elems[i] for i in perm]
            ok = True
            for a in range(sub_n):
                for b in range(sub_n):
                    if a == b:
                        continue
                    want = (a, b) in sub_rel
                    have = (image[a], image[b]) in pairs
                    if want != have:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def oracle_rep_finite(p: pr.Poset) -> bool:
    return not any(_embeds(n, rel, p) for _, n, rel in _CRITICAL_RELATIONS)


def _degrees(n: int, rel) -> list[tuple[int, int]]:
    return [(sum(b == i for _, b in rel), sum(a == i for a, _ in rel)) for i in range(n)]


def _subset_matches(subset: tuple[str, ...], n: int, rel: frozenset, pairs) -> bool:
    """Whether the full subposet on subset is isomorphic to (range(n), rel):
    every bijection that keeps (below, above) counts is tried."""
    sub_rel = {(a, b) for a in range(n) for b in range(n)
               if (subset[a], subset[b]) in pairs}
    if len(sub_rel) != len(rel):
        return False
    want, have = _degrees(n, rel), _degrees(n, sub_rel)
    if sorted(want) != sorted(have):
        return False
    classes = sorted(set(want))
    sources = [[i for i in range(n) if want[i] == c] for c in classes]
    targets = [[i for i in range(n) if have[i] == c] for c in classes]
    for images in product(*(permutations(t) for t in targets)):
        f = {}
        for src, img in zip(sources, images):
            f.update(zip(src, img))
        if all((f[a], f[b]) in sub_rel for a, b in rel):
            return True
    return False


def oracle_witnesses(p: pr.Poset) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Every (critical name, element subset) with an isomorphic full
    subposet: critical list order, subsets in combinations order."""
    return tuple(
        (name, subset)
        for name, n, rel in _CRITICAL_RELATIONS
        for subset in combinations(p.elements, n)
        if _subset_matches(subset, n, rel, p.pairs)
    )


# ---------------------------------------------------------------------------
# bound-quiver oracle: exact rational elimination on the finite path space

def _frac_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _ideal_vectors(bq, src: str, dst: str, minimal: bool):
    """Spanning vectors of the (src, dst) component of the relation ideal.

    With minimal=False returns generators of I(src, dst); with minimal=True
    only the products path * generator * path where at least one outer path
    is nontrivial, i.e. the component of RQ*I + I*RQ.
    """
    basis = bq.paths(src, dst)
    index = {p: k for k, p in enumerate(basis)}
    vectors: list[list[Fraction]] = []
    for p1, p2 in bq.relations:
        a, b = p1[0], p1[-1]
        for u in bq.paths(src, a):
            for v in bq.paths(b, dst):
                if minimal and len(u) == 1 and len(v) == 1:
                    continue
                row = [Fraction(0)] * len(basis)
                row[index[u + p1[1:] + v[1:]]] += 1
                row[index[u + p2[1:] + v[1:]]] -= 1
                if any(row):
                    vectors.append(row)
    return basis, vectors


def oracle_minimal_relation_counts(bq) -> dict[tuple[str, str], int]:
    """r(i, j) = dim of the (i, j) component of I/(RQ*I + I*RQ), by exact
    rank over the rationals; nonzero entries in quiver vertex order."""
    counts: dict[tuple[str, str], int] = {}
    endpoints = sorted({(p1[0], p1[-1]) for p1, _ in bq.relations})
    verts = bq.quiver.vertices
    for src in verts:
        for dst in verts:
            if not any(
                bq.paths(src, a) and bq.paths(b, dst) for a, b in endpoints
            ):
                continue
            _, gens = _ideal_vectors(bq, src, dst, minimal=False)
            _, sub = _ideal_vectors(bq, src, dst, minimal=True)
            r = _frac_rank(gens) - _frac_rank(sub)
            if r:
                counts[(src, dst)] = r
    return counts


def oracle_cartan(bq) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """(order, entries) of the Cartan matrix: entry (i, j) is the number of
    paths i -> j minus the rank of the relation ideal there, in the quiver's
    topological order."""
    order = bq.quiver.topological_order()
    entries = []
    for src in order:
        row = []
        for dst in order:
            basis = bq.paths(src, dst)
            if not basis:
                row.append(0)
                continue
            _, gens = _ideal_vectors(bq, src, dst, minimal=False)
            row.append(len(basis) - _frac_rank(gens))
        entries.append(tuple(row))
    return order, tuple(entries)


def cartan_solve(cm, rhs) -> list[Fraction]:
    """Exact back substitution for C x = rhs, C upper unitriangular."""
    n = len(cm.order)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        x[i] = rhs[i] - sum(cm.entries[i][j] * x[j] for j in range(i + 1, n))
    return x


def cartan_inverse(cm) -> tuple[tuple[int, ...], ...]:
    """Integer inverse of the Cartan matrix, column by column."""
    n = len(cm.order)
    cols = [cartan_solve(cm, [Fraction(int(i == k)) for i in range(n)]) for k in range(n)]
    return tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# subspace lattice and stability score: one SVD per pair or element, every
# member compared with same_subspace, rational sums

def oracle_intersection(qa, qb, tol: float = 1e-9):
    """Orthonormal basis of range(qa) /\\ range(qb) from the null space of
    [qa, -qb], one matrix at a time."""
    from posetrep.linalg import null_space, orthonormal_columns

    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros((qa.shape[0], 0), dtype=complex)
    ns = null_space(np.hstack([qa, -qb]), tol)
    if ns.shape[1] == 0:
        return np.zeros((qa.shape[0], 0), dtype=complex)
    return orthonormal_columns(qa @ ns[: qa.shape[1]], tol)


def oracle_subspace_lattice(rep, tol: float = 1e-9, cap: int = 512):
    """Closure of {0, V, V_e} under sum and intersection: every pass forms
    every pair of the members so far, and each candidate is compared with
    every member."""
    from posetrep.linalg import same_subspace, subspace_sum

    d0 = rep.ambient_dim
    members = [np.zeros((d0, 0), dtype=complex), np.eye(d0, dtype=complex)]

    def add(q) -> bool:
        if any(same_subspace(m, q, tol) for m in members):
            return False
        members.append(q)
        if len(members) > cap:
            raise pr.LatticeTooLarge(f"subspace lattice exceeded cap {cap}")
        return True

    for e in rep.poset.elements:
        add(rep.spans[e])
    grew = True
    while grew:
        grew = False
        snapshot = list(members)
        for i in range(len(snapshot)):
            for j in range(i + 1, len(snapshot)):
                a, b = snapshot[i], snapshot[j]
                grew = add(subspace_sum(a, b, tol)) | grew
                grew = add(oracle_intersection(a, b, tol)) | grew
    members.sort(key=lambda q: q.shape[1])
    return members


def oracle_saturate(rep, basis, tol: float = 1e-9):
    """K -> sum_e (V_e /\\ K) to a fixed point, one intersection at a time."""
    from posetrep.linalg import orthonormal_columns

    current = basis
    while True:
        parts = [oracle_intersection(rep.spans[e], current, tol) for e in rep.poset.elements]
        nxt = orthonormal_columns(np.hstack(parts), tol)
        if nxt.shape[1] in (0, current.shape[1]):
            return nxt if nxt.shape[1] else current
        current = nxt


def oracle_score(rep, w, basis, tol: float = 1e-9) -> Fraction:
    """f(K) = sum chi_e dim(V_e /\\ K) - sigma dim K with every dimension a
    numerical rank, summed in Fractions."""
    from posetrep.linalg import rank_with_guard

    sigma = w.slope(rep)
    total = Fraction(0)
    for e in rep.poset.elements:
        total += w.chi[e] * rank_with_guard(oracle_intersection(rep.spans[e], basis, tol), tol)[0]
    return total - sigma * rank_with_guard(basis, tol)[0]


# ---------------------------------------------------------------------------
# moment map and trace words: one SVD and one product per element or word

def oracle_moment(rep, w, g):
    """Projectors P_{g V_e} keyed in poset order and mu(g), one SVD per
    element: Q = orthonormal_columns(g V_e, 1e-13), P = Q Q*."""
    from posetrep.linalg import orthonormal_columns

    projs = {}
    for e in rep.poset.elements:
        q = orthonormal_columns(g @ rep.spans[e], 1e-13)
        projs[e] = q @ q.conj().T
    mu = -float(w.chi0) * np.eye(rep.ambient_dim, dtype=complex)
    for e in rep.poset.elements:
        mu = mu + float(w.chi[e]) * projs[e]
    return projs, mu


def oracle_unitary_invariants(ps, max_len: int = 4):
    """tr(P_{w1} ... P_{wk}) for every word whose smallest rotation (by
    element index) is itself, each product formed from scratch."""
    elems = ps.poset.elements
    index = {e: k for k, e in enumerate(elems)}

    def canonical(word):
        rots = [word[k:] + word[:k] for k in range(len(word))]
        return min(rots, key=lambda t: tuple(index[x] for x in t))

    out = {}
    words = [()]
    for _ in range(max_len):
        words = [w + (e,) for w in words for e in elems]
        for word in words:
            if canonical(word) != word or word in out:
                continue
            m = np.eye(ps.ambient_dim, dtype=complex)
            for e in word:
                m = m @ ps.projections[e]
            out[word] = complex(np.trace(m))
    return out


# ---------------------------------------------------------------------------
# reference gradient flow: fixed step, QR projectors, no line search

def reference_flow(rep, w, steps: int = 4000, eta: float = 0.05):
    """Naive descent on the same functional; returns (projections, residual)."""
    d0 = rep.ambient_dim
    chi0 = float(w.chi0)
    chi = {e: float(v) for e, v in w.chi.items()}
    g = np.eye(d0, dtype=complex)
    for _ in range(steps):
        projs = {}
        for e in rep.poset.elements:
            m = g @ rep.spans[e]
            if m.shape[1] == 0:
                projs[e] = np.zeros((d0, d0), dtype=complex)
                continue
            q, _r = np.linalg.qr(m)
            q = q[:, : m.shape[1]]
            projs[e] = q @ q.conj().T
        mu = sum(chi[e] * projs[e] for e in rep.poset.elements) - chi0 * np.eye(d0)
        w_eig, v_eig = np.linalg.eigh(mu)
        g = (v_eig * np.exp(-eta * w_eig)) @ v_eig.conj().T @ g
        g = g / np.linalg.norm(g, 2)
    residual = float(np.linalg.norm(mu))
    return projs, residual


# ---------------------------------------------------------------------------
# randomized helpers

def random_poset(rng: np.random.Generator, n: int, density: float = 0.4) -> pr.Poset:
    names = [f"x{i}" for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return pr.build_poset(names, pairs)


def shuffled(rng: np.random.Generator, p: pr.Poset) -> pr.Poset:
    """The same poset with its stored element order shuffled."""
    return pr.Poset([p.elements[i] for i in rng.permutation(len(p))], p.pairs)


def random_relabelled_poset(rng: np.random.Generator, n: int) -> pr.Poset:
    """Random poset of random density whose stored element order is shuffled,
    so that stored order is not a linear extension."""
    return shuffled(rng, random_poset(rng, n, float(rng.uniform(0.15, 0.7))))


def boolean_lattice(k: int) -> pr.Poset:
    """Subsets of {0, ..., k-1} ordered by strict inclusion, named by bit
    strings."""
    names = [format(m, f"0{k}b") for m in range(1 << k)]
    pairs = [(names[a], names[b]) for a in range(1 << k) for b in range(1 << k)
             if a != b and a & b == a]
    return pr.Poset(names, pairs)


def grid_poset(a: int, b: int) -> pr.Poset:
    """Product of an a-chain and a b-chain."""
    names = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(a - 1) for j in range(b)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(a) for j in range(b - 1)]
    return pr.build_poset(names, covers)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    from posetrep.linalg import random_complex

    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_nested_rep(rng: np.random.Generator, p: pr.Poset, d0: int):
    """Random subspace representation honoring every nesting constraint."""
    from posetrep.linalg import orthonormal_columns, random_subspace

    target = {e: int(rng.integers(0, d0 + 1)) for e in p.elements}
    spans: dict[str, np.ndarray] = {}
    for e in p.linear_extension():
        below = [f for f in p.elements if (f, e) in p.pairs]
        base = np.zeros((d0, 0), dtype=complex)
        for f in below:
            base = np.concatenate([base, spans[f]], axis=1)
        if base.shape[1]:
            base = orthonormal_columns(base)
        extra = max(target[e] - base.shape[1], 0)
        if extra:
            base = orthonormal_columns(
                np.concatenate([base, random_subspace(rng, d0, extra)], axis=1)
            )
        spans[e] = base
    return pr.make_rep(p, d0, spans)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def anti4():
    return pr.primitive_poset(1, 1, 1, 1)
