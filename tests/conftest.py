"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own algorithms so tests
compare two separately written routes: poset enumeration by brute force,
representation-finiteness and its witness list by permutation search against
a hard-coded critical list, the commutativity ideal by listing every path,
the bound-quiver invariants by exact rational elimination on the path
space, the inverse Cartan matrix by back substitution, the subspace lattice
and the stability score by pairwise closure and one intersection SVD per
element, a stability classification by the lattice and the Schur test on
top of them, the randomized destabilizer search one restart at a time, the
endomorphism algebra by an SVD of the Kronecker system, the moment map by
one SVD per element, the Hessian of the Newton step as a dense Kronecker
matrix, the stable margin by both of these (the Schur test and a full
eigh), the trace words by one product per word from scratch, a
fixed-step reference flow with its own projector and moment computations,
the four-line sweep's summand count by decomposing the flow's numerical
limit, and complex text written and read one entry at a time.  The weight's
common integer form, slope, trace identity and scale are recomputed in
Fraction arithmetic from its entries on every call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm
from typing import NamedTuple

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

def oracle_commutativity_ideal(q):
    """(path basis, relations) of the full commutativity ideal by listing
    every path: relations are the pairs of distinct parallel paths, grouped
    by sorted endpoints and ordered by (length, path) in a group.  An arrow
    in a group of two or more paths is a shortcut: NotHasseQuiver, naming
    the first such group."""
    q.validate()
    basis = q.all_paths()
    groups: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for p in basis:
        if len(p) > 1:
            groups.setdefault((p[0], p[-1]), []).append(p)
    relations = []
    for (src, dst), paths in sorted(groups.items(), key=lambda kv: kv[0]):
        if len(paths) < 2:
            continue
        paths.sort(key=lambda p: (len(p), p))
        if len(paths[0]) == 2:
            raise pr.NotHasseQuiver(
                f"arrow {src} -> {dst} is parallel to a longer path; "
                "not a covering quiver"
            )
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                relations.append((paths[i], paths[j]))
    return tuple(basis), tuple(relations)


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
    every member.  On overflow, LatticeTooLarge carries the members found
    before the cap, sorted by dimension: pairs of older members only give
    duplicates, so they are added in the order of the semi-naive closure."""
    from posetrep.linalg import same_subspace, subspace_sum

    d0 = rep.ambient_dim
    members = [np.zeros((d0, 0), dtype=complex), np.eye(d0, dtype=complex)]

    def add(q) -> bool:
        if any(same_subspace(m, q, tol) for m in members):
            return False
        members.append(q)
        if len(members) > cap:
            members.sort(key=lambda q: q.shape[1])
            raise pr.LatticeTooLarge(f"subspace lattice exceeded cap {cap}", members)
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


class OracleVerdict(NamedTuple):
    classification: str
    best_score: Fraction | None
    witness: np.ndarray | None
    scored: int  # proper lattice members scored
    overflow: bool  # the closure overflowed its cap
    summands: list  # (dims, classification) of each summand at a best score of 0


def oracle_lattice_verdict(rep, w, tol: float = 1e-9, cap: int = 512) -> OracleVerdict:
    """The classification by the lattice generated by the V_e and the Schur
    test, a route independent of the flow.

    The best score (``oracle_score``) over the proper members of
    ``oracle_subspace_lattice`` (on an overflow, the members found before
    the cap) and, when none reaches 0 and d0 > 1, over the summand
    embeddings of ``decompose_full`` as well: a stable representation has
    End = C, and the summands' scores sum to 0.  Above 0: ``unstable``, the
    best member a witness.  At 0: ``polystable_not_stable`` when there are
    two or more summands and each is stable by this rule, else
    ``semistable_not_polystable``.  Below 0, or with nothing to score:
    ``stable``.  The lattice need not hold a maximizer of the score, so a
    ``stable`` verdict's best score is the best member's, not a certified
    maximum, and after an overflow only a positive best score certifies
    anything.  The trace identity is not checked."""
    d0 = rep.ambient_dim
    try:
        members, overflow = oracle_subspace_lattice(rep, tol, cap), False
    except pr.LatticeTooLarge as exc:
        members, overflow = exc.members, True
    proper = [q for q in members if 0 < q.shape[1] < d0]
    scored = [(oracle_score(rep, w, q, tol), q) for q in proper]
    dec = None
    if d0 > 1 and all(s < 0 for s, _ in scored):
        dec = pr.decompose_full(rep, tol)
        if len(dec.embeddings) > 1:
            scored += [(oracle_score(rep, w, q, tol), q) for q in dec.embeddings]
    best, witness = max(scored, key=lambda c: c[0], default=(None, None))
    summands = []
    if best is None or best < 0:
        classification, witness = pr.STABLE, None
    elif best > 0:
        classification = pr.UNSTABLE
    else:
        dec = dec or pr.decompose_full(rep, tol)
        if len(dec.summands) > 1:
            summands = [(list(s.dim_vector()), oracle_lattice_verdict(s, w, tol, cap).classification)
                        for s in dec.summands]
        poly = bool(summands) and all(c == pr.STABLE for _, c in summands)
        classification = pr.POLYSTABLE_NOT_STABLE if poly else pr.SEMISTABLE_NOT_POLYSTABLE
    return OracleVerdict(classification, best, witness, len(proper), overflow, summands)


def oracle_endomorphism_dim(rep, tol: float = 1e-9) -> int:
    """dim End from the Kronecker system (I - P_e) f P_e = 0: the stacked
    n d0^2 x d0^2 matrix of the kron(P_e^T, I - P_e), its singular values
    from a full SVD, the nullity at tol times the largest."""
    d0 = rep.ambient_dim
    eye = np.eye(d0, dtype=complex)
    blocks = []
    for e in rep.poset.elements:
        q = rep.spans[e]
        if q.shape[1] in (0, d0):
            continue
        p = q @ q.conj().T
        blocks.append(np.kron(p.T, eye - p))
    if not blocks:
        return d0 * d0
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return d0 * d0 - int(np.count_nonzero(s > tol * s[0]))


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

    sigma = oracle_slope(w, rep)
    total = Fraction(0)
    for e in rep.poset.elements:
        total += w.chi[e] * rank_with_guard(oracle_intersection(rep.spans[e], basis, tol), tol)[0]
    return total - sigma * rank_with_guard(basis, tol)[0]


def oracle_random_search(rep, w, seed: int, restarts: int, tol: float = 1e-9):
    """The randomized destabilizer search one restart at a time: draw a
    dimension k in [1, d0) and a random k-subspace, saturate it one
    intersection at a time (the drawn K when that leaves no proper
    subspace), score it in Fractions.  Returns (best score, the first K
    reaching it, whether every rank guard held); (None, None, True) when
    no restart runs, as with d0 = 1.  The dimensions and guard of a K that
    the last saturation round saw come from full SVDs of [V_e, -K], as that
    round formed them, those of any other K from singular values only."""
    from posetrep.linalg import orthonormal_columns, random_subspace

    d0 = rep.ambient_dim
    sigma = w.slope(rep)
    rng = np.random.default_rng(seed)
    best, witness, guard = None, None, True
    for _ in range(restarts if d0 > 1 else 0):
        k = int(rng.integers(1, d0))
        q = random_subspace(rng, d0, k)
        sat, seen = q, True
        while True:
            parts = [oracle_intersection(rep.spans[e], sat, tol) for e in rep.poset.elements]
            if not any(p.shape[1] for p in parts):
                break
            nxt = orthonormal_columns(np.hstack(parts), tol)
            if nxt.shape[1] == 0:
                break
            if nxt.shape[1] == sat.shape[1]:
                sat, seen = nxt, False
                break
            sat = nxt
        if not 0 < sat.shape[1] < d0:
            sat, seen = q, False
        score = -sigma * sat.shape[1]
        for e in rep.poset.elements:
            if rep.dim(e) == 0:
                continue
            m = np.hstack([rep.spans[e], -sat])
            s = np.linalg.svd(m)[1] if seen else np.linalg.svd(m, compute_uv=False)
            ranks = [int(np.count_nonzero(s > f * tol * s[0])) for f in (0.1, 1.0, 10.0)]
            score += w.chi[e] * (m.shape[1] - ranks[1])
            guard = guard and ranks[0] == ranks[2]
        if best is None or score > best:
            best, witness = score, sat
    return best, witness, guard


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


def oracle_hessian(projs: dict, w) -> np.ndarray:
    """The Hessian X -> sum_e chi_e ((I - P_e) X P_e + P_e X (I - P_e)) as a
    dense d0^2 x d0^2 matrix on column-major vec(X):
    sum_e chi_e (kron(P_e^T, I - P_e) + kron((I - P_e)^T, P_e))."""
    total = 0
    for e, p in projs.items():
        q = np.eye(len(p)) - p
        total = total + float(w.chi[e]) * (np.kron(p.T, q) + np.kron(q.T, p))
    return total


def oracle_stable_margin(rep, w, projs: dict) -> tuple[int, float]:
    """The Schur route of the stable certificate: dim End from the
    Kronecker system (``oracle_endomorphism_dim``) and lambda_min, the
    least trace-zero eigenvalue of the dense Kronecker Hessian
    (``oracle_hessian``) at the projectors, from a full eigh with the
    identity's zero dropped.  With dim End = 1, a residual r <= lambda_min / 4
    puts a zero of mu nearby, and the representation is stable."""
    values = np.linalg.eigvalsh(oracle_hessian(projs, w))
    return oracle_endomorphism_dim(rep), float(values[1])


def oracle_orthoscalar_check(ps) -> tuple[float, float, float, float, float]:
    """The violations of ``orthoscalar_check`` (hermitian, idempotent,
    rank_deviation, nesting, scalar), one projection and one order pair at
    a time, the scalar sum one term at a time."""
    herm = idem = rank_dev = nesting = 0.0
    for e in ps.poset.elements:
        p = np.asarray(ps.projections[e], dtype=complex)
        herm = max(herm, float(np.linalg.norm(p - p.conj().T)))
        idem = max(idem, float(np.linalg.norm(p @ p - p)))
        rank_dev = max(rank_dev, abs(float(np.trace(p).real) - ps.ranks[e]))
    for a, b in ps.poset.pairs:
        pa, pb = ps.projections[a], ps.projections[b]
        nesting = max(nesting, float(np.linalg.norm(pa @ pb - pa)),
                      float(np.linalg.norm(pb @ pa - pa)))
    total = -float(ps.weight.chi0) * np.eye(ps.ambient_dim, dtype=complex)
    for e in ps.poset.elements:
        total = total + float(ps.weight.chi[e]) * ps.projections[e]
    return herm, idem, rank_dev, nesting, float(np.linalg.norm(total))


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


def oracle_sweep_summands(lam, w) -> int | None:
    """The summand count of the four lines' flow limit by decomposing the
    limit itself: the ranges of its projections split at tolerance 1e-6,
    or 1e-2 at a boundary point, where the two coalescing lines of the
    limit meet at an angle of order sqrt(residual).  The tolerances fit
    the weight (2; 1, 1, 1, 1) only.  None when the flow does not
    converge."""
    system, _ = pr.kempf_ness_flow(pr.four_lines_rep(lam), w)
    if system is None:
        return None
    tol = 1e-2 if pr.is_exceptional(lam) else 1e-6
    return len(pr.decompose(system.subspace_rep(tol=tol), tol=tol))


# ---------------------------------------------------------------------------
# weights in Fraction arithmetic (independent of Weight's integer cache)

def oracle_common_integer(w, poset) -> tuple[int, dict[str, int]]:
    """chi0 and the chi_e of the poset's elements times the least common
    denominator of these entries."""
    den = lcm(w.chi0.denominator, *(w.chi[e].denominator for e in poset.elements))
    return int(w.chi0 * den), {e: int(w.chi[e] * den) for e in poset.elements}


def oracle_slope(w, rep) -> Fraction:
    """sum chi_e d_e / d0, summed in Fractions."""
    return Fraction(sum(w.chi[e] * rep.dim(e) for e in rep.poset.elements), 1) / rep.ambient_dim


def oracle_trace_identity(w, rep) -> bool:
    """sum chi_e d_e == chi0 d0, summed in Fractions."""
    return sum(w.chi[e] * rep.dim(e) for e in rep.poset.elements) == w.chi0 * rep.ambient_dim


def oracle_scale(w) -> float:
    """min(1, least chi_e), taken in Fractions and then rounded."""
    return float(min([1, *w.chi.values()]))


# ---------------------------------------------------------------------------
# builders

def direct_sum(a, b):
    """Block-diagonal direct sum of two reps of one poset."""
    if a.poset != b.poset:
        raise pr.WrongShape("direct sum requires representations of the same poset")
    d = a.ambient_dim + b.ambient_dim
    spans = {}
    for e in a.poset.elements:
        qa, qb = a.spans[e], b.spans[e]
        q = np.zeros((d, qa.shape[1] + qb.shape[1]), dtype=complex)
        q[: a.ambient_dim, : qa.shape[1]] = qa
        q[a.ambient_dim :, qa.shape[1] :] = qb
        spans[e] = q
    return pr.SubspaceRep(a.poset, d, spans)


# ---------------------------------------------------------------------------
# randomized helpers

def bent_lines_rep(n: int, m: int, eps: float, seed: int):
    """n lines in C^2, the first m within about eps of one common line, with
    weight (n/2; 1, ..., 1): stable, since the lines are distinct, but
    close to the unstable class where m > n/2 of them coincide."""
    from posetrep.linalg import random_complex

    rng = np.random.default_rng(seed)
    p = pr.primitive_poset(*[1] * n)
    line = random_complex(rng, 2, 1)
    spans = {}
    for i, e in enumerate(p.elements):
        spans[e] = random_complex(rng, 2, 1)
        if i < m:
            spans[e] = line + eps * random_complex(rng, 2, 1)
    return pr.make_rep(p, 2, spans), pr.Weight(Fraction(n, 2), {e: 1 for e in p.elements})


def planted_line_rep(rng: np.random.Generator):
    """Six 2-planes in C^4, the first four through one common line, with
    weight (3; 1, 1, 1, 1, 1, 1): the line has slope 4 > 3, so the rep is
    unstable and no orthoscalar representative exists."""
    from posetrep.linalg import random_subspace

    p = pr.primitive_poset(*[1] * 6)
    line = random_subspace(rng, 4, 1)
    spans = {
        e: np.hstack([line, random_subspace(rng, 4, 1)]) if i < 4 else random_subspace(rng, 4, 2)
        for i, e in enumerate(p.elements)
    }
    return pr.make_rep(p, 4, spans), pr.Weight(3, {e: 1 for e in p.elements})


def random_antichain_rep(rng: np.random.Generator, bent: bool):
    """Three to six subspaces of C^2..C^6, each of dimension 1..d0-1, with
    weights chi_e in {1, 2, 3} and chi0 from the trace identity.  When
    bent, a random nonempty set of them has its first basis vector moved to
    within 10^-6..1 of one common line, which puts the rep near (or at,
    numerically) an unstable or strictly semistable class."""
    from posetrep.linalg import random_complex

    d0, n = int(rng.integers(2, 7)), int(rng.integers(3, 7))
    p = pr.primitive_poset(*[1] * n)
    spans = {e: random_complex(rng, d0, int(rng.integers(1, d0))) for e in p.elements}
    if bent:
        line = random_complex(rng, d0, 1)
        for e in p.elements[: int(rng.integers(1, n + 1))]:
            eps = 10 ** rng.uniform(-6, 0)
            spans[e][:, :1] = line + eps * random_complex(rng, d0, 1)
    chi = {e: int(rng.integers(1, 4)) for e in p.elements}
    rep = pr.make_rep(p, d0, spans)
    return rep, pr.Weight(Fraction(sum(chi[e] * rep.dim(e) for e in p.elements), d0), chi)


def random_nested_input(rng: np.random.Generator):
    """A random poset on 1..5 elements, d0 in 2..5, a random nested rep and
    weights chi_e in {1, 2, 3}; with the slope sum chi_e d_e / d0, the chi0
    of the trace identity (0 when every V_e is 0)."""
    p = random_poset(rng, int(rng.integers(1, 6)))
    d0 = int(rng.integers(2, 6))
    rep = random_nested_rep(rng, p, d0)
    chi = {e: int(rng.integers(1, 4)) for e in p.elements}
    return rep, chi, Fraction(sum(chi[e] * rep.dim(e) for e in p.elements), d0)


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


def restrict(p: pr.Poset, subset) -> pr.Poset:
    """Full subposet on the given elements, keeping stored order."""
    keep = set(subset)
    elems = tuple(e for e in p.elements if e in keep)
    if len(elems) != len(keep):
        raise pr.InvalidElement("restriction subset contains unknown elements")
    return pr.Poset(elems, {(a, b) for a, b in p.pairs if a in keep and b in keep})


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
    for e in pr.hasse_quiver(p).topological_order()[:-1]:
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


# ---------------------------------------------------------------------------
# complex text one entry at a time (independent of fileio's bulk codec)

def oracle_format_complex(z) -> str:
    z = complex(z)
    re, im = float(z.real), float(z.imag)
    sign = "+" if (im >= 0 or im != im) else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def oracle_format_matrix(m) -> list[str]:
    """The text rows of a matrix block, one repr pair per entry."""
    return [", ".join(oracle_format_complex(z) for z in row) for row in np.asarray(m).tolist()]


def oracle_parse_rows(lines, start: int, nrows: int, ncols: int):
    """A matrix block read row by row and token by token from ``lines``
    (pairs of line number and stripped text); returns it and the index
    after it, or raises the ParseError of the first bad row."""
    rows = []
    idx = start
    while len(rows) < nrows:
        if idx >= len(lines):
            raise pr.ParseError(f"unexpected end of file, expected {nrows} matrix rows")
        lineno, line = lines[idx]
        idx += 1
        entries = []
        for tok in line.split(","):
            try:
                entries.append(complex(tok.strip().replace(" ", "")))
            except ValueError:
                raise pr.ParseError(f"bad complex number {tok!r}", lineno) from None
        if len(entries) != ncols:
            raise pr.ParseError(f"expected {ncols} entries, got {len(entries)}", lineno)
        rows.append(entries)
    m = np.array(rows, dtype=complex) if rows else np.zeros((0, ncols), dtype=complex)
    return m, idx


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def anti4():
    return pr.primitive_poset(1, 1, 1, 1)
