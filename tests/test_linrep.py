import random
from fractions import Fraction
from sys import float_info

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posetrep as pr
from posetrep.linalg import random_complex, random_subspace, same_subspace
from conftest import (
    direct_sum,
    oracle_common_integer,
    oracle_endomorphism_dim,
    oracle_lattice_verdict,
    oracle_random_search,
    oracle_saturate,
    oracle_scale,
    oracle_score,
    oracle_slope,
    oracle_subspace_lattice,
    oracle_trace_identity,
    planted_line_rep,
    random_antichain_rep,
    random_nested_rep,
    random_poset,
)

E1 = np.array([[1.0], [0.0]], dtype=complex)
E2 = np.array([[0.0], [1.0]], dtype=complex)


def two_lines(v1=E1, v2=E2):
    p = pr.primitive_poset(1, 1)
    return pr.make_rep(p, 2, {"a1": v1, "a2": v2})


def near_lines(theta=3e-9):
    """Two lines at angle theta; at 3e-9 [V_1, -V_2] has a singular value
    between tol and 10 tol, so the rank guard fires."""
    return two_lines(E1, np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex))


def point_rep():
    """A rep in C^1, which has no proper nonzero subspace."""
    p = pr.primitive_poset(1, 2)
    spans = {
        "a1": np.ones((1, 1), dtype=complex),
        "a2": np.zeros((1, 0), dtype=complex),
        "a3": np.ones((1, 1), dtype=complex),
    }
    return pr.make_rep(p, 1, spans), pr.Weight.from_entries(p, [2, 1, 1, 1])


def five_planes(k):
    """Five random k-planes in C^5 (seed 0) with weight (k; 1, ..., 1)."""
    p = pr.primitive_poset(*[1] * 5)
    rng = np.random.default_rng(0)
    rep = pr.make_rep(p, 5, {e: random_complex(rng, 5, k) for e in p.elements})
    return rep, pr.Weight(k, {e: 1 for e in p.elements})


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


def test_make_rep_bases_equal_orthonormal_columns_bit_for_bit():
    """make_rep orthonormalizes the spans of one width in one batched SVD;
    each basis is the per-matrix orthonormal_columns bit for bit, with
    widths 0 to 3 mixed in one poset, an omitted element and an explicit
    width-0 span."""
    from posetrep.linalg import orthonormal_columns

    rng = np.random.default_rng(44)
    p = pr.primitive_poset(*[1] * 9)
    widths = (1, 2, 0, 3, 2, 1, 2, 0, 3)
    spans = {e: random_complex(rng, 5, k) for e, k in zip(p.elements, widths)}
    del spans["a8"]
    rep = pr.make_rep(p, 5, spans)
    assert rep.dim_vector() == (5,) + widths
    for e in p.elements:
        want = orthonormal_columns(spans.get(e, np.zeros((5, 0))))
        assert rep.spans[e].dtype == want.dtype and np.array_equal(rep.spans[e], want), e


def test_direct_sum_block_structure():
    a = two_lines()
    b = two_lines(E2, E1)
    s = direct_sum(a, b)
    assert s.ambient_dim == 4
    assert s.dim_vector() == (4, 2, 2)
    other = pr.make_rep(pr.primitive_poset(1), 1, {"a1": np.ones((1, 1), dtype=complex)})
    with pytest.raises(pr.WrongShape):
        direct_sum(a, other)


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
    # an extra element is named, not reported as "missing []"
    with pytest.raises(pr.WrongShape, match=r"missing \[\], extra \['zz'\]"):
        pr.Weight(1, {"a1": 1, "a2": 1, "zz": 1}).aligned(p)


def test_weight_refuses_entries_a_float_cannot_hold():
    """An entry whose float is infinite, 0 or subnormal is a WrongShape, in
    any place; the normal extremes are kept, with their floats."""
    p = pr.primitive_poset(1, 1)
    for bad in ("1e400", "1e-400", "1e-310", "2e-308", 2**1024, Fraction(1, 2**1075)):
        for place in range(3):
            entries = [1, 1, 1]
            entries[place] = bad
            with pytest.raises(pr.WrongShape, match="range of normal floats"):
                pr.Weight.from_entries(p, entries)
    w = pr.Weight.from_entries(p, [Fraction(float_info.max), Fraction(float_info.min), "1e-300"])
    assert (w._float0, w._float["a1"], w._float["a2"]) == (float_info.max, float_info.min, 1e-300)


def test_float_shift_divides_by_ints_past_the_float_range():
    """_float_shift(n) is (float(n), 0) wherever n fits a float, so a
    float divided by m 2^s is bit for bit the float divided by n; past the
    range m 2^s is n to a relative 2^-53, with m a float near 2^1000."""
    for n in (1, 3, 10**300, 2**1023, int(float_info.max)):
        assert pr.linrep._float_shift(n) == (float(n), 0)
    for n in (int(float_info.max) + 2**971, 2 * 10**308, 7**1000, 10**5000):
        m, s = pr.linrep._float_shift(n)
        assert s > 0 and 2.0**999 <= m <= 2.0**1000
        assert abs(Fraction(m) * 2**s / n - 1) <= Fraction(1, 2**53)


def test_weight_derived_quantities():
    p = pr.primitive_poset(1, 1)
    w = pr.Weight.from_entries(p, ["2", "1/2", "3/2"])
    assert w.chi0 == 2
    chi0, chi = w.common_integer(p)
    assert (chi0, chi["a1"], chi["a2"]) == (4, 1, 3)
    # the least chi_e below 1, else 1
    assert (w.scale, pr.Weight(2, {"a1": 3, "a2": 2}).scale) == (0.5, 1.0)


def test_weight_keeps_its_fraction_entries():
    """Entries that are Fractions already are kept, not copied, so a slope
    weight (sigma; chi) shares its chi_e with the weight it comes from;
    other entries are converted."""
    p = pr.primitive_poset(1, 1)
    w = pr.Weight.from_entries(p, ["2", "1/2", 3])
    s = Fraction(5, 4)
    slope = pr.Weight(s, w.chi)
    assert slope.chi0 is s
    assert all(slope.chi[e] is w.chi[e] for e in p.elements)
    assert type(w.chi["a2"]) is Fraction and w.chi["a2"] == 3


#: large denominators, pairwise coprime: primes near 10^6 and 2^31 - 1,
#: a product of two of them, and 231 = 3 7 11
_DENOMINATORS = [999983, 1000003, 999983 * 1000003, 2**31 - 1, 231]


def _wide_rational(seed: int) -> Fraction:
    """A numerator of up to 100 random bits, so float(chi) rounds, over a
    large denominator."""
    rng = random.Random(seed)
    return Fraction(rng.getrandbits(100) + 1, rng.choice(_DENOMINATORS))


#: positive weight entries: integers, rationals over large coprime
#: denominators, and binary fractions from floats such as Fraction(0.1)
_ENTRIES = st.one_of(
    st.integers(1, 10**6),
    st.builds(Fraction, st.integers(1, 10**6), st.sampled_from(_DENOMINATORS)),
    st.integers(0, 2**32 - 1).map(_wide_rational),
    st.floats(1e-12, 1e12).map(Fraction),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), _ENTRIES, st.lists(_ENTRIES, min_size=4, max_size=4),
       st.integers(1, 6), st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_weight_integer_cache_matches_fraction_oracles(n, chi0, entries, d0, dims):
    """Weight's common-denominator integers give exactly what the Fraction
    formulas give, on posets of 0..4 elements and random dimension
    vectors; the cached floats are float(chi_e) bit for bit."""
    p = pr.primitive_poset(*[1] * n)
    w = pr.Weight.from_entries(p, [chi0, *entries[:n]])
    spans = {e: np.zeros((d0, min(d, d0)), dtype=complex) for e, d in zip(p.elements, dims)}
    rep = pr.SubspaceRep(p, d0, spans)
    assert w.common_integer(p) == oracle_common_integer(w, p)
    assert w.slope(rep) == oracle_slope(w, rep)
    assert w.trace_identity(rep) == oracle_trace_identity(w, rep)
    assert w.scale.hex() == oracle_scale(w).hex()
    assert w._float0.hex() == float(w.chi0).hex()
    assert all(w._float[e].hex() == float(w.chi[e]).hex() for e in p.elements)
    sigma = oracle_slope(w, rep)
    if sigma > 0:
        assert pr.Weight(sigma, w.chi).trace_identity(rep)


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


def test_endomorphism_dims_match_kronecker_oracle():
    """The compact constraint stack gives the dimension of the Kronecker
    system's null space, on generic and nested reps, the exceptional four
    lines and block sums (dim End >= 2, 4 for two equal copies); the basis
    is orthonormal and keeps every V_e."""
    rng = np.random.default_rng(35)
    cases = [pr.four_lines_rep(lam) for lam in pr.EXCEPTIONAL_LAMBDAS + (2, 3 + 4j)]
    for i in range(24):
        cases.append(random_antichain_rep(rng, bent=i % 2 == 1)[0])
    for _ in range(12):
        p = random_poset(rng, int(rng.integers(2, 6)))
        cases.append(random_nested_rep(rng, p, int(rng.integers(1, 6))))
    p = pr.primitive_poset(*[1] * 5)
    for _ in range(8):
        d = int(rng.integers(2, 4))
        a = pr.make_rep(p, d, {e: random_complex(rng, d, 1) for e in p.elements})
        b = pr.make_rep(p, d, {e: random_complex(rng, d, 1) for e in p.elements})
        cases += [direct_sum(a, b), direct_sum(a, a), direct_sum(direct_sum(a, b), a)]
    dims = []
    for rep in cases:
        basis = pr.endomorphism_algebra(rep)
        assert len(basis) == oracle_endomorphism_dim(rep)
        dims.append(len(basis))
        if rep.ambient_dim == 0:
            continue
        flat = np.stack([f.ravel() for f in basis])
        assert np.allclose(flat.conj() @ flat.T, np.eye(len(basis)), atol=1e-12)
        for f in basis:
            for e in rep.poset.elements:
                q = rep.spans[e]
                assert np.linalg.norm(f @ q - q @ (q.conj().T @ f @ q)) < 1e-9
    assert sum(d >= 2 for d in dims) >= 30 and 4 in dims and max(dims) >= 5


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
    s = direct_sum(a, b)
    parts = pr.decompose(s)
    assert sorted(p.ambient_dim for p in parts) == [2, 2]


def test_decompose_full_embeddings_cover_ambient():
    rep = two_lines()
    dec = pr.decompose_full(rep)
    total = np.concatenate(dec.embeddings, axis=1)
    assert np.linalg.matrix_rank(total) == rep.ambient_dim
    for sub, emb in zip(dec.summands, dec.embeddings):
        assert emb.shape == (rep.ambient_dim, sub.ambient_dim)


def test_decompose_deterministic():
    rep = two_lines()
    a = pr.decompose(rep)
    b = pr.decompose(rep)
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
        cases.append((direct_sum(*parts), 30))
    for _ in range(14):
        p = random_poset(rng, int(rng.integers(2, 6)))
        cases.append((random_nested_rep(rng, p, int(rng.integers(1, 7))), 30))
    return cases


def _members(rep, cap, route):
    """The members, and whether the closure overflowed cap; on overflow the
    members found before it."""
    try:
        return route(rep, cap=cap), False
    except pr.LatticeTooLarge as exc:
        return exc.members, True


def _assert_same_closure(rep, cap):
    """subspace_lattice and the pairwise oracle overflow at the same cap
    and give the same members in the same order, bit for bit, also the
    members found before an overflow; returns whether it overflowed."""
    got, got_over = _members(rep, cap, pr.subspace_lattice)
    want, want_over = _members(rep, cap, oracle_subspace_lattice)
    assert got_over == want_over
    assert len(got) == len(want) == (cap + 1 if want_over else len(want))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    return want_over


def test_lattice_matches_pairwise_oracle():
    """Same members, same order, bit for bit, and an overflow at the same
    cap, with the same members found before it, as the closure that forms
    every pair in every pass."""
    rng = np.random.default_rng(31)
    overflows = 0
    for rep, cap in _lattice_cases(rng):
        if _assert_same_closure(rep, cap):
            overflows += 1
            continue
        n = len(pr.subspace_lattice(rep, cap=cap))
        if n > 2:  # 0 and V are not counted against the cap
            # one member fewer than the closure holds: both overflow
            assert _assert_same_closure(rep, n - 1)
    assert overflows >= 3


def test_lattice_edges():
    """The closure against the pairwise oracle at its edges: C^1; a
    zero-width and a full-width span; two elements with one span, and a
    third line at 0.8 tol from it, which same_subspace merges with it; a
    pass of many pairs (7 generic lines in C^3, a planted rep) at caps that
    overflow in the middle of a pass."""
    rng = np.random.default_rng(33)
    line, other = random_subspace(rng, 4, 2).T[:, :, None]
    spans = {"a1": np.zeros((4, 0), dtype=complex), "a2": random_complex(rng, 4, 4),
             "a3": line, "a4": 2j * line, "a5": random_complex(rng, 4, 2),
             "a6": line + 0.8e-9 * other}
    edges = pr.make_rep(pr.primitive_poset(*[1] * 6), 4, spans)
    p = pr.primitive_poset(*[1] * 7)
    lines = pr.make_rep(p, 3, {e: random_complex(rng, 3, 1) for e in p.elements})
    planted, _ = planted_line_rep(np.random.default_rng(0))
    cases = [(point_rep()[0], 512), (edges, 512), (lines, 38), (lines, 47), (lines, 56),
             (planted, 60), (planted, 101)]
    assert len(pr.subspace_lattice(edges)) == 5  # 0, the line, the plane, their sum, V
    assert sum(_assert_same_closure(rep, cap) for rep, cap in cases) == 5


def test_lattice_keeps_planes_just_beyond_tolerance():
    """Two planes of C^4 at one principal angle of 1.2 tol: the spectral
    residual of each against the other is above tol, so same_subspace keeps
    them apart and both stay members, as in the pairwise closure."""
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
    """subspace_score, one basis at a time, and the scorer on all proper
    lattice members in one batch against one intersection SVD per element
    and rational sums."""
    from posetrep import linrep

    rng = np.random.default_rng(32)
    compared = 0
    for rep, cap in _lattice_cases(rng):
        d0 = rep.ambient_dim
        w = _random_weight(rng, rep.poset)
        members, over = _members(rep, cap, oracle_subspace_lattice)
        bases = [random_subspace(rng, d0, int(rng.integers(1, d0 + 1))),
                 random_complex(rng, d0, int(rng.integers(1, d0 + 1)))]
        proper = [] if over else [q for q in members if 0 < q.shape[1] < d0]
        for q in proper + bases:
            assert pr.subspace_score(rep, w, q) == oracle_score(rep, w, q)
            compared += 1
        if proper:
            score = linrep._Scorer(rep, w, 1e-9)
            batch = [Fraction(num, score.den) for num, _ in score(proper)]
            assert batch == [oracle_score(rep, w, q) for q in proper]
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
    assert not v.inconclusive
    # the flow certifies it and scores no subspace
    assert v.methods == ("flow",) and v.diagnostics["route"] == "flow_stable"
    assert v.best_score is None and v.witness is None
    v = oracle_lattice_verdict(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    assert v.classification == pr.STABLE
    assert v.best_score == Fraction(-1)


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


def test_stability_agrees_with_flow():
    """King's correspondence, checked by two independent routes: a rep is
    polystable exactly when the Kempf-Ness flow reaches mu = 0."""
    w2 = pr.Weight(1, {"a1": 1, "a2": 1})
    cases = [
        (pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT, pr.STABLE),
        (pr.four_lines_rep(3 + 4j), pr.FOURSPACE_WEIGHT, pr.STABLE),
        (two_lines(), w2, pr.POLYSTABLE_NOT_STABLE),
        (two_lines(E1, E1), w2, pr.UNSTABLE),
    ]
    for rep, w, expected in cases:
        verdict = pr.stability_check(rep, w)
        _, report = pr.kempf_ness_flow(rep, w, pr.FlowOptions(max_iter=2000))
        assert verdict.classification == expected
        assert (report.status == "converged") == (
            verdict.classification in (pr.STABLE, pr.POLYSTABLE_NOT_STABLE)
        )


def test_stability_exceptional_lambdas():
    """Indecomposable (dim End = 1) with a score-0 line: semistable, not
    polystable, on the flow route and by the lattice oracle."""
    for lam in pr.EXCEPTIONAL_LAMBDAS:
        rep = pr.four_lines_rep(lam)
        assert len(pr.endomorphism_algebra(rep)) == 1
        v = pr.stability_check(rep, pr.FOURSPACE_WEIGHT)
        assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE
        assert v.diagnostics["route"] == "flow_boundary"
        assert v.best_score == 0 == pr.subspace_score(rep, pr.FOURSPACE_WEIGHT, v.witness)
        v = oracle_lattice_verdict(rep, pr.FOURSPACE_WEIGHT)
        assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE


def test_stability_d0_one_no_proper_subspaces():
    rep, w = point_rep()
    v = pr.stability_check(rep, w)
    assert v.classification == pr.STABLE


def test_stability_rank_guard_diagnostics():
    v = pr.stability_check(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    assert "rank_guard" not in v.diagnostics["inconclusive_reasons"]


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
    assert "rank_guard" in v.diagnostics["inconclusive_reasons"]
    assert v.inconclusive


def test_score_after_saturation_uses_its_own_tolerance():
    """Saturating at one tolerance leaves nothing behind that a score at
    another tolerance reads: at angle 3e-9, V_2 /\\ V_1 is 0 at tol 1e-9
    and a line at tol 1e-8."""
    rep = near_lines()
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    k = rep.spans["a1"]
    for sat_tol, score_tol in ((1e-9, 1e-9), (1e-9, 1e-8), (1e-8, 1e-9)):
        pr.saturate_subspace(rep, k, sat_tol)
        assert pr.subspace_score(rep, w, k, score_tol) == oracle_score(rep, w, k, score_tol)
    assert oracle_score(rep, w, k, 1e-9) != oracle_score(rep, w, k, 1e-8)


def test_lattice_overflow_keeps_best_member():
    """Four of six 2-planes in C^4 through one planted line: the closure
    overflows its cap, but the line, an intersection of two planes, is
    found before it and scores +1, a certificate of instability, which the
    lattice oracle reads off the partial lattice.  A generic stable rep
    whose lattice overflows proves nothing on the lattice.  The flow
    certifies both without one."""
    rep, _ = planted_line_rep(np.random.default_rng(0))
    with pytest.raises(pr.LatticeTooLarge) as info:
        pr.subspace_lattice(rep)
    dims = [q.shape[1] for q in info.value.members]
    assert len(dims) == 513 and dims == sorted(dims)
    for seed in range(4):
        rep, w = planted_line_rep(np.random.default_rng(seed))
        # the witness comes from the partial lattice
        v = oracle_lattice_verdict(rep, w, cap=64)
        assert v.overflow and v.classification == pr.UNSTABLE
        assert v.best_score == pr.subspace_score(rep, w, v.witness) >= 1
        # the flow's plateau certifies the same best score without a lattice
        flow = pr.stability_check(rep, w)
        assert flow.diagnostics["route"] == "flow_unstable"
        assert flow.classification == pr.UNSTABLE and not flow.inconclusive
        assert flow.best_score == pr.subspace_score(rep, w, flow.witness) == v.best_score
    rep, w = five_planes(3)
    v = oracle_lattice_verdict(rep, w, cap=64)
    assert v.overflow and v.classification == pr.STABLE and v.best_score < 0
    # the flow certifies stable with a margin, and nothing is left open
    v = pr.stability_check(rep, w)
    assert v.classification == pr.STABLE and not v.inconclusive
    assert v.diagnostics["residual"] <= v.diagnostics["lambda_min"] / 4


def test_generic_stable_reps_are_not_inconclusive():
    """Generic reps are stable and nothing is left open on the flow route;
    the lattice oracle agrees.  Its best score is the best lattice
    member's, not a certified maximum: for five generic 2-planes in C^4
    with weight (5/2; 1, ..., 1) it is -3 (each plane), while a plane that
    meets four of them in lines scores -1."""
    cases = [(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)]
    p = pr.primitive_poset(1, 1, 1, 1, 1)
    w = pr.Weight.from_entries(p, [Fraction(5, 2), 1, 1, 1, 1, 1])
    rng = np.random.default_rng(41)
    for _ in range(5):
        cases.append((pr.make_rep(p, 4, {e: random_complex(rng, 4, 2) for e in p.elements}), w))
    for i, (rep, w) in enumerate(cases):
        v = pr.stability_check(rep, w)
        assert v.classification == pr.STABLE
        assert not v.inconclusive and v.diagnostics["inconclusive_reasons"] == []
        v = oracle_lattice_verdict(rep, w)
        assert v.classification == pr.STABLE and not v.overflow
        assert v.best_score == (-1 if i == 0 else -3)


# ---------------------------------------------------------------------------
# the lattice route (now the lattice oracle) and the flow against the
# randomized search, one restart at a time

def test_lattice_route_never_trails_the_random_search_oracle():
    """Wherever 200 random subspaces, each saturated and scored one at a
    time, reach a score of 0 or more, the lattice oracle's best score and
    the flow's certified best score are at least as large, so such a search
    could never raise the sign of either.  The inputs are the first 40
    antichain reps of seed 2026 (every other one bent toward a common
    line), the planted line and 20 random nested reps; chi0 is one above
    the trace identity, which leaves every score as it is."""
    rng = np.random.default_rng(2026)
    cases = [random_antichain_rep(rng, bent=i % 2 == 1) for i in range(40)]
    cases.append(planted_line_rep(np.random.default_rng(0)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(1, 6)))
        d0 = int(rng.integers(2, 6))
        rep = random_nested_rep(rng, p, d0)
        chi = {e: int(rng.integers(1, 4)) for e in p.elements}
        total = sum(chi[e] * rep.dim(e) for e in p.elements)
        cases.append((rep, pr.Weight(Fraction(total, d0) + 1, chi)))
    reached = 0
    for seed, (rep, w) in enumerate(cases):
        best, _, _ = oracle_random_search(rep, w, seed, 200)
        if best is None or best < 0:
            continue
        reached += 1
        for v in (oracle_lattice_verdict(rep, w, cap=64), pr.stability_check(rep, w)):
            assert v.best_score is not None and v.best_score >= best
            assert v.classification != pr.STABLE
    assert reached >= 10


def test_stability_svd_call_budget(monkeypatch):
    """Scoring takes one SVD call per (basis width, span width), however
    many bases are scored; a saturation round one per element and one for
    the sum; counts, not timings."""
    from posetrep import linrep

    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(42)
    p = pr.primitive_poset(*[1] * 5)
    planes = pr.make_rep(p, 4, {e: random_complex(rng, 4, 2) for e in p.elements})
    cases = [(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT),
             (planes, pr.Weight(Fraction(5, 2), {e: 1 for e in p.elements})),
             planted_line_rep(np.random.default_rng(0))]
    for rep, w in cases:
        d0, n = rep.ambient_dim, len(rep.poset)
        widths = len({rep.dim(e) for e in rep.poset.elements})
        bases = [random_subspace(rng, d0, k) for k in range(1, d0) for _ in range(50)]
        score = linrep._Scorer(rep, w, 1e-9)
        calls[0] = 0
        score(bases)
        assert calls[0] <= (d0 - 1) * widths
        for q in bases[::10]:
            calls[0] = 0
            pr.saturate_subspace(rep, q)
            assert calls[0] <= d0 * (n + 1)


def test_methods_list_only_the_search_that_ran():
    """The flow is the only method, also in C^1 where no proper subspace
    exists, and on an uncertified verdict; no lattice time is kept."""
    for rep, w in ((pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT), point_rep(),
                   (near_lines(), pr.Weight(1, {"a1": 1, "a2": 1}))):
        v = pr.stability_check(rep, w)
        assert v.methods == ("flow",) and "lattice" not in v.diagnostics["times_ms"]
    assert v.diagnostics["route"] == "uncertified"


def test_stability_inconclusive_reasons():
    """The reason names the certificate that did not close, and only an
    uncertified verdict has one: near two lines the dimension of End
    hangs on the tolerance; five 3-planes in C^5, whose lattice overflows,
    and the four lines are certified with none."""
    w2 = pr.Weight(1, {"a1": 1, "a2": 1})
    v = pr.stability_check(near_lines(), w2)
    assert v.inconclusive and v.diagnostics["inconclusive_reasons"] == ["rank_guard"]
    for rep, w in (five_planes(3), (pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)):
        v = pr.stability_check(rep, w)
        assert not v.inconclusive and v.diagnostics["inconclusive_reasons"] == []
