from fractions import Fraction

import numpy as np
import pytest

import posetrep as pr
from posetrep.linalg import random_complex, random_subspace, same_subspace
from conftest import (
    oracle_saturate,
    oracle_score,
    oracle_subspace_lattice,
    random_nested_rep,
    random_poset,
)

E1 = np.array([[1.0], [0.0]], dtype=complex)
E2 = np.array([[0.0], [1.0]], dtype=complex)


def two_lines(v1=E1, v2=E2):
    p = pr.primitive_poset(1, 1)
    return pr.make_rep(p, 2, {"a1": v1, "a2": v2})


# ---------------------------------------------------------------------------
# construction

def test_make_rep_orthonormalizes():
    p = pr.primitive_poset(1)
    rep = pr.make_rep(p, 2, {"a1": np.array([[3.0], [4.0]], dtype=complex)})
    q = rep.spans["a1"]
    assert np.allclose(q.conj().T @ q, np.eye(1))
    assert rep.dim_vector() == (2, 1)


def test_make_rep_rejects_rank_deficient():
    p = pr.primitive_poset(1)
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(pr.RankDeficient):
        pr.make_rep(p, 2, {"a1": m})


def test_make_rep_rejects_broken_nesting():
    p = pr.primitive_poset(2)
    with pytest.raises(pr.NestingViolation):
        pr.make_rep(p, 2, {"a1": E1, "a2": E2})
    # nested pair is fine
    pr.make_rep(p, 2, {"a1": E1, "a2": np.eye(2, dtype=complex)})


def test_make_rep_rejects_wrong_shapes():
    p = pr.primitive_poset(1)
    with pytest.raises(pr.WrongShape):
        pr.make_rep(p, 2, {"a1": np.ones((3, 1), dtype=complex)})
    with pytest.raises(pr.WrongShape):
        pr.make_rep(p, 2, {"a1": E1, "zz": E2})
    # omitted elements mean the zero subspace
    rep = pr.make_rep(p, 2, {})
    assert rep.dim_vector() == (2, 0)


def test_direct_sum_block_structure():
    a = two_lines()
    b = two_lines(E2, E1)
    s = pr.direct_sum(a, b)
    assert s.ambient_dim == 4
    assert s.dim_vector() == (4, 2, 2)
    other = pr.make_rep(pr.primitive_poset(1), 1, {"a1": np.ones((1, 1), dtype=complex)})
    with pytest.raises(pr.PosetMismatch):
        pr.direct_sum(a, other)


def test_transformed_keeps_dims():
    rep = two_lines()
    g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    moved = rep.transformed(g)
    assert moved.dim_vector() == rep.dim_vector()
    assert same_subspace(moved.spans["a1"], g @ rep.spans["a1"])


# ---------------------------------------------------------------------------
# weights

def test_weight_positivity_and_alignment():
    p = pr.primitive_poset(1, 1)
    with pytest.raises(pr.WrongShape):
        pr.Weight(0, {"a1": 1, "a2": 1})
    with pytest.raises(pr.WrongShape):
        pr.Weight(1, {"a1": -1, "a2": 1})
    with pytest.raises(pr.WrongShape):
        pr.Weight(1, {"a1": 1}).aligned(p)


def test_weight_derived_quantities():
    p = pr.primitive_poset(1, 1)
    w = pr.Weight.from_entries(p, ["2", "1/2", "3/2"])
    assert w.chi0 == 2
    assert w.normalized(p) == {"a1": 0.25, "a2": 0.75}
    chi0, chi = w.common_integer(p)
    assert (chi0, chi["a1"], chi["a2"]) == (4, 1, 3)
    assert w.stability_form(p) == (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))
    assert w.coadjoint_spectrum("a1", 3, 1) == (Fraction(1, 2), 0, 0)


def test_weight_slope_and_trace_identity():
    rep = two_lines()
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    assert w.slope(rep) == 1
    assert w.trace_identity(rep)
    assert not pr.Weight(3, {"a1": 1, "a2": 1}).trace_identity(rep)


# ---------------------------------------------------------------------------
# endomorphisms and decomposition

def test_endomorphism_algebra_contains_identity():
    rep = two_lines()
    basis = pr.endomorphism_algebra(rep)
    assert len(basis) == 2
    # identity lies in the span
    stacked = np.stack([b.ravel() for b in basis])
    coeff, res, _, _ = np.linalg.lstsq(stacked.T, np.eye(2).ravel(), rcond=None)
    assert np.linalg.norm(stacked.T @ coeff - np.eye(2).ravel()) < 1e-10


def test_endomorphism_algebra_generic_lines_is_scalars():
    rep = pr.four_lines_rep(2 + 1j)
    assert len(pr.endomorphism_algebra(rep)) == 1


def test_decompose_two_lines():
    rep = two_lines()
    parts = pr.decompose(rep)
    assert sorted(p.dim_vector() for p in parts) == [(1, 0, 1), (1, 1, 0)]


def test_decompose_indecomposable():
    rep = pr.four_lines_rep(0.5 + 0.5j)
    assert len(pr.decompose(rep)) == 1


def test_decompose_direct_sum_recovers_blocks(rng):
    a = pr.four_lines_rep(2 + 1j)
    b = pr.four_lines_rep(-3 + 2j)
    s = pr.direct_sum(a, b)
    parts = pr.decompose(s, seed=4)
    assert sorted(p.ambient_dim for p in parts) == [2, 2]


def test_decompose_full_embeddings_cover_ambient():
    rep = two_lines()
    dec = pr.decompose_full(rep, seed=2)
    total = np.concatenate(dec.embeddings, axis=1)
    assert np.linalg.matrix_rank(total) == rep.ambient_dim
    for sub, emb in zip(dec.summands, dec.embeddings):
        assert emb.shape == (rep.ambient_dim, sub.ambient_dim)


def test_decompose_deterministic():
    rep = two_lines()
    a = pr.decompose(rep, seed=3)
    b = pr.decompose(rep, seed=3)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for e in rep.poset.elements:
            assert np.array_equal(x.spans[e], y.spans[e])


# ---------------------------------------------------------------------------
# lattice, scores, saturation

def test_subspace_lattice_closure():
    rep = pr.four_lines_rep(2)
    lattice = pr.subspace_lattice(rep)
    dims = sorted(q.shape[1] for q in lattice)
    # 0, four lines, pairwise sums = C^2
    assert dims[0] == 0 and dims[-1] == 2
    assert sum(1 for q in lattice if q.shape[1] == 1) == 4


def test_subspace_lattice_cap():
    rep = pr.four_lines_rep(2)
    with pytest.raises(pr.LatticeTooLarge):
        pr.subspace_lattice(rep, cap=3)


def test_subspace_score_exact_fraction():
    rep = two_lines()
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    val = pr.subspace_score(rep, w, rep.spans["a1"])
    assert val == Fraction(0)
    assert isinstance(val, Fraction)


def _lattice_cases(rng):
    """Small representations (d0 <= 6) with the cap to close them at: generic
    subspaces, lines drawn from a pool of three (repeated lines), 2-planes
    through one planted line, direct sums and random nested ones.  Some of
    them overflow their cap."""
    def anti(n):
        return pr.primitive_poset(*([1] * n))

    cases = []
    for _ in range(14):
        p, d = anti(int(rng.integers(2, 6))), int(rng.integers(2, 5))
        spans = {e: random_complex(rng, d, int(rng.integers(1, d))) for e in p.elements}
        cases.append((pr.make_rep(p, d, spans), 30))
    for _ in range(12):
        p, d = anti(int(rng.integers(3, 6))), int(rng.integers(2, 4))
        pool = [random_complex(rng, d, 1) for _ in range(3)]
        spans = {e: pool[int(rng.integers(3))] * complex(*rng.standard_normal(2))
                 for e in p.elements}
        cases.append((pr.make_rep(p, d, spans), 30))
    for _ in range(12):
        p, d = anti(int(rng.integers(3, 6))), int(rng.integers(3, 5))
        line = random_complex(rng, d, 1)
        m = int(rng.integers(2, len(p) + 1))
        spans = {e: np.hstack([line, random_complex(rng, d, 1)]) if i < m
                 else random_complex(rng, d, 2) for i, e in enumerate(p.elements)}
        cases.append((pr.make_rep(p, d, spans), 24))
    for _ in range(10):
        p = anti(int(rng.integers(2, 5)))
        da, db = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        parts = [pr.make_rep(p, d, {e: random_complex(rng, d, int(rng.integers(0, d + 1)))
                                    for e in p.elements}) for d in (da, db)]
        cases.append((pr.direct_sum(*parts), 30))
    for _ in range(14):
        p = random_poset(rng, int(rng.integers(2, 6)))
        cases.append((random_nested_rep(rng, p, int(rng.integers(1, 7))), 30))
    return cases


def _closed(rep, cap, route):
    try:
        return route(rep, cap=cap)
    except pr.LatticeTooLarge:
        return None


def test_lattice_matches_pairwise_oracle():
    """Same members, same order, bit for bit, and an overflow at the same
    cap as the closure that forms every pair in every pass."""
    rng = np.random.default_rng(31)
    overflows = 0
    for rep, cap in _lattice_cases(rng):
        got = _closed(rep, cap, pr.subspace_lattice)
        want = _closed(rep, cap, oracle_subspace_lattice)
        assert (got is None) == (want is None)
        if want is None:
            overflows += 1
            continue
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        if len(want) > 2:  # 0 and V are not counted against the cap
            # one member fewer than the closure holds: both overflow
            assert _closed(rep, len(want) - 1, pr.subspace_lattice) is None
            assert _closed(rep, len(want) - 1, oracle_subspace_lattice) is None
    assert overflows >= 3


def test_lattice_keeps_planes_just_beyond_tolerance():
    """Two planes of C^4 at one principal angle of 1.2 tol: |M - Q Q* M|_F^2
    passes the prefilter bound 2 tol^2 but the spectral residual is above
    tol, so both stay members, as in the pairwise closure."""
    theta = 1.2e-9
    e = np.eye(4, dtype=complex)
    tilted = np.stack([e[:, 0], np.cos(theta) * e[:, 1] + np.sin(theta) * e[:, 2]], axis=1)
    rep = pr.make_rep(pr.primitive_poset(1, 1), 4, {"a1": e[:, :2], "a2": tilted})
    got = pr.subspace_lattice(rep)
    want = oracle_subspace_lattice(rep)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not same_subspace(rep.spans["a1"], rep.spans["a2"])
    assert sum(q.shape[1] == 2 for q in got) == 2


def _random_weight(rng, p):
    entries = [Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
               for _ in range(len(p) + 1)]
    return pr.Weight.from_entries(p, entries)


def test_scores_match_per_element_oracle():
    """subspace_score and the lattice maximum of stability_check against one
    intersection SVD per element and rational sums."""
    rng = np.random.default_rng(32)
    compared = 0
    for rep, cap in _lattice_cases(rng):
        d0 = rep.ambient_dim
        w = _random_weight(rng, rep.poset)
        members = _closed(rep, cap, oracle_subspace_lattice)
        bases = [random_subspace(rng, d0, int(rng.integers(1, d0 + 1))),
                 random_complex(rng, d0, int(rng.integers(1, d0 + 1)))]
        proper = [] if members is None else [q for q in members if 0 < q.shape[1] < d0]
        for q in proper + bases:
            assert pr.subspace_score(rep, w, q) == oracle_score(rep, w, q)
            compared += 1
        if proper:
            # closed under cap, so the same closure as under the 512 of
            # stability_check
            v = pr.stability_check(rep, w, pr.StabilityOptions(restarts=0))
            assert v.diagnostics["lattice_best"] == max(oracle_score(rep, w, q) for q in proper)
    assert compared > 300


def test_saturation_matches_per_element_oracle():
    """Same basis, bit for bit, as saturating with one intersection SVD per
    element."""
    rng = np.random.default_rng(33)
    moved = 0
    for rep, _ in _lattice_cases(rng):
        d0 = rep.ambient_dim
        for _ in range(4):
            k = random_subspace(rng, d0, int(rng.integers(1, d0 + 1)))
            got = pr.saturate_subspace(rep, k)
            assert np.array_equal(got, oracle_saturate(rep, k))
            moved += got is not k
    assert moved > 50


def test_subspace_score_of_rank_deficient_basis_is_score_of_span(rng):
    p = pr.primitive_poset(1, 1, 1, 1, 1)
    w = pr.Weight.from_entries(p, [Fraction(5, 2), 1, 1, 1, 1, 1])
    for _ in range(10):
        rep = pr.make_rep(p, 4, {e: random_complex(rng, 4, 2) for e in p.elements})
        k = int(rng.integers(1, 4))
        q = random_subspace(rng, 4, k) if k > 1 else rep.spans["a1"][:, :1]
        doubled = np.hstack([q, q[:, :1]])
        assert pr.subspace_score(rep, w, doubled) == pr.subspace_score(rep, w, q)
        assert pr.subspace_score(rep, w, doubled) == oracle_score(rep, w, q)


def test_saturation_never_lowers_score(rng):
    w_entries = [2, 1, 1, 1, 1]
    p = pr.primitive_poset(1, 1, 1, 1)
    w = pr.Weight.from_entries(p, w_entries)
    for _ in range(20):
        rep = random_nested_rep(rng, p, 2)
        if rep.ambient_dim == 0:
            continue
        k = random_subspace(rng, 2, 1)
        before = pr.subspace_score(rep, w, k)
        sat = pr.saturate_subspace(rep, k)
        if 0 < sat.shape[1] < 2:
            after = pr.subspace_score(rep, w, sat)
            assert after >= before


# ---------------------------------------------------------------------------
# stability classifier

def test_stability_stable_case():
    v = pr.stability_check(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    assert v.classification == pr.STABLE
    assert v.best_score == Fraction(-1)
    assert not v.inconclusive
    assert "lattice_exact" in v.methods and "randomized" in v.methods


def test_stability_unstable_witness_rechecks():
    rep = two_lines(E1, E1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    v = pr.stability_check(rep, w)
    assert v.classification == pr.UNSTABLE
    assert v.witness is not None
    assert pr.subspace_score(rep, w, v.witness) == v.best_score > 0


def test_stability_tie_decomposes_to_polystable():
    v = pr.stability_check(two_lines(), pr.Weight(1, {"a1": 1, "a2": 1}))
    assert v.classification == pr.POLYSTABLE_NOT_STABLE
    assert v.best_score == 0


def test_stability_broken_trace_identity_not_polystable():
    v = pr.stability_check(two_lines(), pr.Weight(2, {"a1": 1, "a2": 1}))
    assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE
    assert not v.trace_identity


def test_stability_flow_oracle_recorded():
    v = pr.stability_check(
        pr.four_lines_rep(2),
        pr.FOURSPACE_WEIGHT,
        pr.StabilityOptions(use_flow=True),
    )
    assert v.classification == pr.STABLE
    assert "flow_oracle" in v.methods
    assert not v.inconclusive


def test_stability_exceptional_lambdas():
    for lam in pr.EXCEPTIONAL_LAMBDAS:
        v = pr.stability_check(pr.four_lines_rep(lam), pr.FOURSPACE_WEIGHT)
        assert v.classification == pr.POLYSTABLE_NOT_STABLE


def test_stability_d0_one_no_proper_subspaces():
    p = pr.primitive_poset(1, 2)
    spans = {
        "a1": np.ones((1, 1), dtype=complex),
        "a2": np.zeros((1, 0), dtype=complex),
        "a3": np.ones((1, 1), dtype=complex),
    }
    rep = pr.make_rep(p, 1, spans)
    v = pr.stability_check(rep, pr.Weight.from_entries(p, [2, 1, 1, 1]))
    assert v.classification == pr.STABLE


def test_stability_rank_guard_diagnostics():
    v = pr.stability_check(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    assert v.diagnostics["rank_guard_stable"] is True


def test_rank_guard_fires_on_near_intersection():
    """Two lines at angle 3e-9: [V_1, -V_2] has smallest singular value
    about 1.5 tol times the largest, so its rank differs between tol and
    10 tol and the dimension of V_1 /\\ V_2 hangs on the tolerance."""
    theta = 3e-9
    near = np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex)
    rep = two_lines(E1, near)
    s = np.linalg.svd(np.hstack([E1, -near]), compute_uv=False)
    assert 1e-9 < s[-1] / s[0] < 1e-8
    v = pr.stability_check(rep, pr.Weight(1, {"a1": 1, "a2": 1}))
    assert v.diagnostics["rank_guard_stable"] is False
    assert v.inconclusive


def test_score_after_saturation_reuses_only_same_tolerance():
    """The scorer may take the intersections saturate_subspace just formed
    for the same basis, but not those formed at another tolerance: at
    angle 3e-9, V_2 /\\ V_1 is 0 at tol 1e-9 and a line at tol 1e-8."""
    from posetrep.linrep import _scorer

    theta = 3e-9
    rep = two_lines(E1, np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex))
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    k = rep.spans["a1"]
    for sat_tol, score_tol in ((1e-9, 1e-9), (1e-9, 1e-8), (1e-8, 1e-9)):
        pr.saturate_subspace(rep, k, sat_tol)
        assert _scorer(rep, w, score_tol)(k)[0] == oracle_score(rep, w, k, score_tol)
    assert oracle_score(rep, w, k, 1e-9) != oracle_score(rep, w, k, 1e-8)


def test_generic_stable_reps_are_not_inconclusive():
    """The random search scores above the lattice on generic reps (e.g. -5/2
    against -3) without a change of sign; that changes no verdict."""
    cases = [(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)]
    p = pr.primitive_poset(1, 1, 1, 1, 1)
    w = pr.Weight.from_entries(p, [Fraction(5, 2), 1, 1, 1, 1, 1])
    rng = np.random.default_rng(41)
    for _ in range(5):
        cases.append((pr.make_rep(p, 4, {e: random_complex(rng, 4, 2) for e in p.elements}), w))
    for rep, w in cases:
        v = pr.stability_check(rep, w)
        assert v.classification == pr.STABLE
        assert not v.inconclusive
        assert "randomized_excess" not in v.diagnostics
        assert v.diagnostics["rank_guard_stable"] is True
