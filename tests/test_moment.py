import math
from fractions import Fraction

import numpy as np
import pytest

import posetrep as pr
from posetrep import moment
from posetrep.linalg import herm_expm, random_complex, random_subspace
from posetrep.moment import _MomentMap
from conftest import (
    oracle_moment,
    oracle_unitary_invariants,
    random_nested_rep,
    random_poset,
    random_unitary,
    reference_flow,
    shuffled,
)

E1 = np.array([[1.0], [0.0]], dtype=complex)
E2 = np.array([[0.0], [1.0]], dtype=complex)


def two_lines(v1=E1, v2=E2):
    p = pr.primitive_poset(1, 1)
    return pr.make_rep(p, 2, {"a1": v1, "a2": v2})


def perp_system():
    p = pr.primitive_poset(1, 1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    projs = {"a1": E1 @ E1.conj().T, "a2": E2 @ E2.conj().T}
    return pr.ProjectionSystem(p, w, projs, {"a1": 1, "a2": 1})


# ---------------------------------------------------------------------------
# checks and the moment map

def test_orthoscalar_check_passes_for_complementary_lines():
    rep = perp_system()
    out = pr.orthoscalar_check(rep)
    assert out.passed
    d = out.as_dict()
    assert set(d) >= {"hermitian", "idempotent", "rank_deviation", "nesting", "scalar"}


def test_orthoscalar_check_flags_bad_scalar():
    p = pr.primitive_poset(1, 1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    projs = {"a1": E1 @ E1.conj().T, "a2": E1 @ E1.conj().T}
    out = pr.orthoscalar_check(pr.ProjectionSystem(p, w, projs, {"a1": 1, "a2": 1}))
    assert not out.passed
    assert out.as_dict()["scalar"] > 0.5


def test_moment_value_zero_at_balanced_config():
    rep = two_lines()
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    mu = pr.moment_value(rep, np.eye(2, dtype=complex), w)
    assert np.linalg.norm(mu) < 1e-12


def test_moment_value_rejects_singular_metric():
    rep = two_lines()
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    g = np.diag([1.0, 1e-20]).astype(complex)
    with pytest.raises(pr.SingularMetric):
        pr.moment_value(rep, g, w)


def test_directional_derivative_matches_finite_differences(rng):
    w = pr.FOURSPACE_WEIGHT
    for _ in range(10):
        lam = complex(rng.normal(), rng.normal())
        rep = pr.four_lines_rep(lam)
        g = np.eye(2, dtype=complex) + 0.3 * random_complex(rng, 2, 2)
        h = random_complex(rng, 2, 2)
        h = (h + h.conj().T) / 2
        der = pr.kn_directional_derivative(rep, g, w, h)

        def f(t):
            m = pr.moment_value(rep, herm_expm(t * h) @ g, w)
            return float(np.linalg.norm(m)) ** 2

        num = (f(1e-6) - f(-1e-6)) / 2e-6
        assert abs(der - num) <= 1e-5 * max(1.0, abs(num))


def test_batched_moment_matches_per_element_oracle(rng):
    """One QR per span width against one SVD per element, on random nested
    reps with mixed widths (zero included) under well-conditioned metrics."""
    widths_seen = set()
    mixed = 0
    for _ in range(60):
        p = shuffled(rng, random_poset(rng, int(rng.integers(1, 8))))
        d0 = int(rng.integers(1, 7))
        rep = random_nested_rep(rng, p, d0)
        chi = {e: int(rng.integers(1, 6)) for e in p.elements}
        w = pr.Weight(int(rng.integers(1, 6)), chi)
        g = (random_unitary(rng, d0) * np.exp(rng.uniform(-1.5, 1.5, d0))) @ random_unitary(rng, d0)
        mmap = _MomentMap(rep, w)
        p_stack, mu = mmap(g)
        system = mmap.system(p_stack)
        want_projs, want_mu = oracle_moment(rep, w, g)
        assert list(system.projections) == list(p.elements)
        assert system.ranks == rep.dims()
        assert np.linalg.norm(mu - want_mu) <= 1e-12
        for e in p.elements:
            assert np.linalg.norm(system.projections[e] - want_projs[e]) <= 1e-12
        assert np.array_equal(pr.moment_value(rep, g, w), mu)
        widths = set(rep.dims().values())
        widths_seen |= widths
        mixed += len(widths - {0}) >= 2 and 0 in widths
    assert 0 in widths_seen and len(widths_seen) >= 4
    assert mixed >= 5


def _mixed_width_rep(rng):
    """Lines, planes and a zero subspace in C^4, with the trace identity
    for chi = 1: 1 + 2 + 0 + 1 + 2 = (3/2) 4."""
    p = pr.primitive_poset(1, 1, 1, 1, 1)
    dims = dict(zip(p.elements, (1, 2, 0, 1, 2)))
    rep = pr.make_rep(p, 4, {e: random_subspace(rng, 4, k) for e, k in dims.items()})
    return rep, pr.Weight(Fraction(3, 2), {e: 1 for e in p.elements})


def test_flow_gradient_matches_oracle(rng):
    """The first iteration's gradient norm, sqrt(4 sum_e chi_e
    |(I - P_e) mu P_e|_F^2) at g = I, from the oracle's projectors; mixed
    widths and weights other than 1."""
    rep, _ = _mixed_width_rep(rng)
    chi = dict(zip(rep.poset.elements, (2, 1, 5, 2, 1)))
    w = pr.Weight(2, chi)
    _, report = pr.kempf_ness_flow(rep, w, pr.FlowOptions(max_iter=1))
    projs, mu = oracle_moment(rep, w, np.eye(4, dtype=complex))
    want = 4 * sum(
        chi[e] * np.linalg.norm((np.eye(4) - p) @ mu @ p) ** 2 for e, p in projs.items()
    )
    assert abs(report.gradient_norm - np.sqrt(want)) <= 1e-12 * np.sqrt(want)


def test_flow_linalg_call_budget(monkeypatch, rng):
    """At most one SVD per step trial (plus the condition number of the
    first and the last metric) and one QR per nonzero span width per
    moment-map evaluation; counts, not timings."""
    cases = [
        (pr.four_lines_rep(3 + 4j), pr.FOURSPACE_WEIGHT, pr.FlowOptions(), 1),
        (*_mixed_width_rep(rng), pr.FlowOptions(max_iter=40), 2),
    ]
    counts = {"svd": 0, "qr": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    for rep, w, opts, groups in cases:
        counts.update(svd=0, qr=0)
        _, report = pr.kempf_ness_flow(rep, w, opts)
        assert report.attempts >= report.iterations > 0
        assert counts["svd"] <= report.attempts + 2
        assert counts["qr"] == groups * (report.attempts + 1)


# ---------------------------------------------------------------------------
# the flow

def test_flow_converges_and_history_monotone():
    system, report = pr.kempf_ness_flow(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    assert report.status == "converged"
    assert report.residual < 1e-8
    assert all(b <= a + 1e-14 for a, b in zip(report.history, report.history[1:]))
    assert pr.orthoscalar_check(system).passed


def test_flow_matches_reference_implementation():
    """Same functional minimized by an independently written fixed-step
    descent.  The two limits differ by a unitary change of frame, so they
    are compared through trace invariants, not raw matrices."""
    rep = pr.four_lines_rep(2)
    w = pr.FOURSPACE_WEIGHT
    system, _ = pr.kempf_ness_flow(rep, w)
    ref_projs, ref_residual = reference_flow(rep, w, steps=3000, eta=0.05)
    assert ref_residual < 1e-10
    ref_system = pr.ProjectionSystem(rep.poset, w, ref_projs, system.ranks)
    assert pr.orthoscalar_check(ref_system, tol=1e-7).passed
    i1 = pr.unitary_invariants(system, 4)
    i2 = pr.unitary_invariants(ref_system, 4)
    assert max(abs(i1[k] - i2[k]) for k in i1) < 1e-7


def test_flow_gauge_consistency():
    """The flow from a random unitary start in the orbit (the flow on u V
    from the identity) reaches the same unitary class."""
    rep = pr.four_lines_rep(2)
    w = pr.FOURSPACE_WEIGHT
    u = random_unitary(np.random.default_rng(5), rep.ambient_dim)
    s1, _ = pr.kempf_ness_flow(rep, w)
    s2, _ = pr.kempf_ness_flow(rep.transformed(u), w)
    i1 = pr.unitary_invariants(s1, 4)
    i2 = pr.unitary_invariants(s2, 4)
    assert max(abs(i1[k] - i2[k]) for k in i1) < 1e-6


def test_flow_refuses_broken_trace_identity():
    rep = two_lines()
    with pytest.raises(pr.NoTraceIdentity):
        pr.kempf_ness_flow(rep, pr.Weight(2, {"a1": 1, "a2": 1}))


def test_flow_plateau_on_coincident_lines():
    rep = two_lines(E1, E1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    system, report = pr.kempf_ness_flow(rep, w)
    assert system is None
    assert report.status == "plateau"
    assert report.residual > 1.0


def test_flow_breakdown_on_tiny_condition_cap(monkeypatch):
    rep = pr.four_lines_rep(2)
    monkeypatch.setattr(moment, "COND_CAP", 1.0 + 1e-9)
    with pytest.raises(pr.NumericalBreakdown):
        pr.kempf_ness_flow(rep, pr.FOURSPACE_WEIGHT)


def test_flow_deterministic_reports():
    rep = pr.four_lines_rep(3 + 4j)
    w = pr.FOURSPACE_WEIGHT
    _, r1 = pr.kempf_ness_flow(rep, w)
    _, r2 = pr.kempf_ness_flow(rep, w)
    assert r1.iterations == r2.iterations
    assert r1.attempts == r2.attempts
    assert r1.history == r2.history


def test_flow_exceptional_reaches_boundary():
    """Non-closed orbits approach the zero fiber polynomially; at a relaxed
    tolerance the flow converges and the limit splits into two lines."""
    system, report = pr.kempf_ness_flow(
        pr.four_lines_rep(0.0), pr.FOURSPACE_WEIGHT, pr.FlowOptions(tol=1e-4)
    )
    assert report.status == "converged"
    parts = pr.decompose(system.subspace_rep(tol=1e-2), tol=1e-2)
    assert sorted(p.ambient_dim for p in parts) == [1, 1]


# ---------------------------------------------------------------------------
# normal form and invariants

def test_hopf_normal_form_identities():
    system, _ = pr.kempf_ness_flow(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    mats = pr.hopf_normal_form(system)
    d0 = system.ambient_dim
    total = sum(m @ m.conj().T for m in mats.values())
    assert np.linalg.norm(total - np.eye(d0)) < 1e-8
    normalized = system.weight.normalized(system.poset)
    for e, m in mats.items():
        gram = m.conj().T @ m
        assert np.linalg.norm(gram - normalized[e] * np.eye(gram.shape[0])) < 1e-8


def test_hopf_normal_form_rejects_non_orthoscalar():
    p = pr.primitive_poset(1, 1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    projs = {"a1": E1 @ E1.conj().T, "a2": E1 @ E1.conj().T}
    ps = pr.ProjectionSystem(p, w, projs, {"a1": 1, "a2": 1})
    with pytest.raises(pr.CheckFailed):
        pr.hopf_normal_form(ps)


def test_unitary_invariants_cyclic_keys_and_invariance(rng):
    ps = perp_system()
    inv = pr.unitary_invariants(ps, 3)
    for word in inv:
        rotations = [word[k:] + word[:k] for k in range(len(word))]
        assert word == min(rotations)
    u = random_unitary(rng, 2)
    moved = pr.ProjectionSystem(
        ps.poset,
        ps.weight,
        {e: u @ p @ u.conj().T for e, p in ps.projections.items()},
        ps.ranks,
    )
    inv2 = pr.unitary_invariants(moved, 3)
    assert max(abs(inv[k] - inv2[k]) for k in inv) < 1e-12


def test_unitary_invariants_match_oracle(rng):
    """Keys, their order and the values, bit for bit, against one product
    per word from scratch; mixed ranks and a stored order that is not
    sorted."""
    for n, d0, max_len in ((1, 2, 4), (3, 3, 5), (4, 2, 4), (6, 5, 3), (10, 4, 4)):
        p = shuffled(rng, pr.primitive_poset(*[1] * n))
        ranks = {e: int(rng.integers(0, d0 + 1)) for e in p.elements}
        projs = {}
        for e in p.elements:
            q = random_subspace(rng, d0, ranks[e])
            projs[e] = q @ q.conj().T
        ps = pr.ProjectionSystem(p, pr.Weight(1, {e: 1 for e in p.elements}), projs, ranks)
        got = pr.unitary_invariants(ps, max_len)
        want = oracle_unitary_invariants(ps, max_len)
        assert list(got) == list(want)
        assert all(got[k] == want[k] for k in want)


def test_fourspace_parameters_on_sphere_matrices(rng):
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a, b, c = (float(x) for x in v)
        ps = pr.sphere_projection_system(a, b, c)
        assert pr.orthoscalar_check(ps).passed
        got = pr.fourspace_parameters(ps)
        assert np.allclose(got, (a * a, b * b, c * c), atol=1e-10)
        assert abs(sum(got) - 1.0) < 1e-10


def test_fourspace_parameters_rejects_wrong_shape():
    ps = perp_system()
    with pytest.raises(pr.WrongShape):
        pr.fourspace_parameters(ps)


def test_sphere_projection_system_validates_input():
    with pytest.raises(pr.WrongShape):
        pr.sphere_projection_system(1.0, 1.0, 1.0)


def test_flow_report_as_dict_round_trips_json():
    import json

    _, report = pr.kempf_ness_flow(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["status"] == "converged"
    assert payload["iterations"] == report.iterations
    assert payload["attempts"] == report.attempts >= report.iterations


def test_parse_lambda_tokens():
    assert pr.parse_lambda("2") == 2
    assert pr.parse_lambda("3+4i") == 3 + 4j
    assert pr.parse_lambda("inf") == float("inf")
    assert pr.parse_lambda("oo") == float("inf")
    assert pr.parse_lambda("-1e400") == math.inf
    assert pr.parse_lambda("1e400") == math.inf
    assert pr.parse_lambda("2-1e400i") == math.inf
    assert pr.parse_lambda("1.5e308+1.5e308i") == math.inf
    assert pr.parse_lambda("1e308+1e308i") == 1e308 + 1e308j
    for token in ("nan", "nan+1i", "1-nani"):
        with pytest.raises(pr.WrongShape):
            pr.parse_lambda(token)
    with pytest.raises(pr.WrongShape):
        pr.parse_lambda("zzz")


def test_is_exceptional():
    assert pr.is_exceptional(0)
    assert pr.is_exceptional(1)
    assert pr.is_exceptional(float("inf"))
    assert not pr.is_exceptional(2)
    assert not pr.is_exceptional(1 + 1e-3)


def test_four_lines_rep_distinct_generic():
    rep = pr.four_lines_rep(7 - 2j)
    for e in rep.poset.elements:
        assert rep.spans[e].shape == (2, 1)
    v = pr.stability_check(rep, pr.FOURSPACE_WEIGHT)
    assert v.classification == pr.STABLE
