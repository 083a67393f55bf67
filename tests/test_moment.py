import math
from fractions import Fraction

import numpy as np
import pytest

import posetrep as pr
from posetrep import moment
from posetrep.linalg import herm_expm, random_complex, random_subspace
from posetrep.moment import _MomentMap
from conftest import (
    oracle_hessian,
    oracle_moment,
    oracle_unitary_invariants,
    planted_line_rep,
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


def test_line_projectors_match_qr_under_ill_conditioned_metric(rng):
    """The closed-form line projector v v* / |v|^2 against Q Q* from the QR
    of v = g V_e, for random lines under metrics of condition about 1e10:
    they agree to 1e-12, and each is Hermitian and idempotent to 1e-14."""
    p = pr.primitive_poset(*[1] * 6)
    d0 = 5
    w = pr.Weight(Fraction(6, 5), {e: 1 for e in p.elements})
    for _ in range(20):
        rep = pr.make_rep(p, d0, {e: random_complex(rng, d0, 1) for e in p.elements})
        g = (random_unitary(rng, d0) * np.logspace(0, -10, d0)) @ random_unitary(rng, d0)
        assert 1e9 < np.linalg.cond(g) < 1e11
        p_stack = _MomentMap(rep, w)(g)[0]
        for e, proj in zip(p.elements, p_stack):
            q = np.linalg.qr(g @ rep.spans[e])[0]
            assert np.linalg.norm(proj - q @ q.conj().T) <= 1e-12
            assert np.linalg.norm(proj - proj.conj().T) <= 1e-14
            assert np.linalg.norm(proj @ proj - proj) <= 1e-14


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
    """One SVD per step trial (the reported condition needs none of its
    own) and one QR per span width of 2 or more per moment-map evaluation,
    none for lines; counts, not timings."""
    cases = [
        (pr.four_lines_rep(3 + 4j), pr.FOURSPACE_WEIGHT, pr.FlowOptions(), 0),
        (*_mixed_width_rep(rng), pr.FlowOptions(max_iter=40), 1),
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
        assert counts["svd"] == report.attempts
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


def test_flow_plateau_on_tiny_condition_cap(monkeypatch):
    """A metric condition past COND_CAP ends the run as a plateau at the
    metric just accepted: with the cap just above 1, after the first
    iteration, which is the first iteration of the uncapped run."""
    rep = pr.four_lines_rep(2)
    _, free = pr.kempf_ness_flow(rep, pr.FOURSPACE_WEIGHT)
    monkeypatch.setattr(moment, "COND_CAP", 1.0 + 1e-9)
    system, report = pr.kempf_ness_flow(rep, pr.FOURSPACE_WEIGHT)
    assert system is None and report.status == "plateau"
    assert report.iterations == 1 and report.history == free.history[:2]
    assert report.residual == free.history[1] > free.residual
    assert report.condition > moment.COND_CAP
    assert report.condition == pytest.approx(np.linalg.cond(report.final_metric), rel=1e-9)


def test_flow_deterministic_reports():
    rep = pr.four_lines_rep(3 + 4j)
    w = pr.FOURSPACE_WEIGHT
    _, r1 = pr.kempf_ness_flow(rep, w)
    _, r2 = pr.kempf_ness_flow(rep, w)
    assert r1.iterations == r2.iterations
    assert r1.attempts == r2.attempts
    assert r1.history == r2.history


def test_flow_exceptional_reaches_boundary():
    """Non-closed orbits approach the zero fiber only in the limit; the
    Newton flow still gets below the default tolerance, and the limit splits
    into two lines."""
    system, report = pr.kempf_ness_flow(pr.four_lines_rep(0.0), pr.FOURSPACE_WEIGHT)
    assert report.status == "converged"
    parts = pr.decompose(system.subspace_rep(tol=1e-2), tol=1e-2)
    assert sorted(p.ambient_dim for p in parts) == [1, 1]


def test_flow_plateau_on_planted_line(rng):
    """Unstable input: the residual settles above the norm of the
    Harder-Narasimhan type, sqrt(4/3), while the metric degenerates; the
    stall test ends the run long before max_iter or the condition cap."""
    for _ in range(3):
        rep, w = planted_line_rep(rng)
        system, report = pr.kempf_ness_flow(rep, w)
        assert system is None
        assert report.status == "plateau"
        assert report.iterations <= 100
        assert report.residual > np.sqrt(4 / 3) - 1e-9
        assert report.condition < moment.COND_CAP


def test_flow_plateau_trials_and_hn_type():
    """The planted line on seeds 0-3 under the remembered step: the run
    still ends with a plateau at the HN type, the spectrum of mu at the
    final metric being the slopes (4, 8/3) less chi0 = 3 with
    multiplicities (1, 3), and the line search spends at most three trials
    per iteration there (about five when every iteration started at 1)."""
    for seed in range(4):
        rep, w = planted_line_rep(np.random.default_rng(seed))
        _, report = pr.kempf_ness_flow(rep, w)
        assert report.status == "plateau"
        spectrum = np.linalg.eigvalsh(pr.moment_value(rep, report.final_metric, w))[::-1]
        assert np.allclose(spectrum, [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-3)
        assert report.attempts <= 3 * report.iterations
        assert all(0 < t <= 1 for t in report.steps)


def test_flow_generic_takes_every_first_trial(rng):
    """On generic stable reps every iteration accepts its first trial, a
    full step, and the telemetry has one entry per iteration."""
    for n, d0, k in ((5, 4, 2), (8, 6, 3), (10, 16, 8)):
        p = pr.primitive_poset(*[1] * n)
        rep = pr.make_rep(p, d0, {e: random_subspace(rng, d0, k) for e in p.elements})
        w = pr.Weight(Fraction(n * k, d0), {e: 1 for e in p.elements})
        _, report = pr.kempf_ness_flow(rep, w)
        assert report.status == "converged"
        assert report.trials == [1] * report.iterations
        assert report.steps == [1.0] * report.iterations
        assert report.attempts == report.iterations


def test_flow_telemetry_lengths(rng):
    """len(steps) == len(trials) == iterations however the run ends: at
    max_iter, at a plateau, converged, and with no iteration at all."""
    rep, w = _mixed_width_rep(rng)
    cases = [(rep, w, pr.FlowOptions(max_iter=3)), (rep, w, pr.FlowOptions(max_iter=0)),
             (*planted_line_rep(rng), pr.FlowOptions()),
             (pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT, pr.FlowOptions()),
             (two_lines(), pr.Weight(1, {"a1": 1, "a2": 1}), pr.FlowOptions())]
    for rep, w, opts in cases:
        _, report = pr.kempf_ness_flow(rep, w, opts)
        assert len(report.steps) == len(report.trials) == report.iterations
        assert sum(report.trials) == report.attempts
        assert len(report.history) == report.iterations + 1
    assert report.iterations == 0 and report.status == "converged"


def test_newton_direction_meets_forcing_bound(rng):
    """The CG direction against the dense Hessian L, on antichains with mixed
    widths (zero and full included), weights other than 1 and metrics of
    condition at most e^3.  Always: x is Hermitian, inside the trust region,
    a descent direction for F, and the reported L(x) is L applied to x.
    Where mu lies in the range of L and the exact Newton step L^+(-mu) fits
    the trust region (CG iterates grow in norm towards it): x meets the
    forcing bound |L(x) + mu| <= min(eta, sqrt|mu|) |mu|, at the default
    eta = 1/2 and at the tight eta = 1/10."""

    def vec(m):
        return m.reshape(-1, order="F")

    checked = 0
    for _ in range(40):
        n, d0 = int(rng.integers(4, 8)), int(rng.integers(2, 6))
        p = pr.primitive_poset(*[1] * n)
        dims = {e: int(rng.integers(1, d0)) for e in p.elements}
        dims[p.elements[0]] = int(rng.choice([0, d0, dims[p.elements[0]]]))
        rep = pr.make_rep(p, d0, {e: random_subspace(rng, d0, k) for e, k in dims.items()})
        chi = {e: int(rng.integers(1, 4)) for e in p.elements}
        w = pr.Weight(Fraction(sum(chi[e] * dims[e] for e in chi), d0), chi)
        g = (random_unitary(rng, d0) * np.exp(rng.uniform(-1.5, 1.5, d0))) @ random_unitary(rng, d0)
        mmap = _MomentMap(rep, w)
        p_stack, mu = mmap(g)
        residual = float(np.linalg.norm(mu))
        x, lx, _, products = moment._newton_direction(mmap, p_stack, mu)
        assert np.array_equal(x, x.conj().T)
        assert 1 <= products <= d0 * d0
        assert np.linalg.norm(x) <= moment.MAX_STEP * (1 + 1e-12)
        projs, want_mu = oracle_moment(rep, w, g)
        dense = oracle_hessian(projs, w)
        assert np.linalg.norm(dense @ vec(x) - vec(lx)) <= 1e-10 * residual
        assert np.vdot(want_mu, lx).real < 0
        newton = np.linalg.lstsq(dense, -vec(want_mu), rcond=1e-10)[0]
        if (
            np.linalg.norm(dense @ newton + vec(want_mu)) > 1e-9 * residual
            or np.linalg.norm(newton) > moment.MAX_STEP
        ):
            continue
        checked += 1
        bound = min(0.5, np.sqrt(residual)) * residual
        assert np.linalg.norm(dense @ vec(x) + vec(want_mu)) <= bound * (1 + 1e-9)
        x = moment._newton_direction(mmap, p_stack, mu, eta=0.1)[0]
        bound = min(0.1, np.sqrt(residual)) * residual
        assert np.linalg.norm(dense @ vec(x) + vec(want_mu)) <= bound * (1 + 1e-9)
    assert checked >= 25


def test_flow_is_scale_equivariant():
    """Scaling the weight by s = 2^-30, and the tolerance with it, scales mu
    by s and leaves the Newton steps as they are: five generic 2-planes in
    C^4 at weight (5/2; 1, ..., 1) take the same iterations, trials, steps
    and Hessian-vector products at s = 1 and at s, with every residual in
    proportion."""
    rng = np.random.default_rng(5)
    p = pr.primitive_poset(*[1] * 5)
    rep = pr.make_rep(p, 4, {e: random_complex(rng, 4, 2) for e in p.elements})

    def flow(s):
        w = pr.Weight(Fraction(5, 2) * s, {e: s for e in p.elements})
        return pr.kempf_ness_flow(rep, w, pr.FlowOptions(tol=1e-8 * float(s)))[1]

    s = Fraction(1, 2**30)
    unit, small = flow(1), flow(s)
    assert unit.status == small.status == "converged"
    assert (small.iterations, small.hvp, small.trials, small.steps) == (
        unit.iterations, unit.hvp, unit.trials, unit.steps)
    np.testing.assert_allclose(np.array(small.history) / float(s), unit.history, rtol=1e-12)


def test_flow_iteration_budget(rng):
    """Iteration counts, not times, at tol 1e-8: a few Newton steps on
    generic inputs and tens of them at and near the boundary of the
    four-line family."""
    w = pr.FOURSPACE_WEIGHT
    opts = pr.FlowOptions(tol=1e-8)
    cases = [(pr.four_lines_rep(lam), w, 8) for lam in (2, 3 + 4j)]
    cases += [
        (pr.four_lines_rep(lam), w, 30)
        for lam in (1e-3, 1e-4, 1e-5, 1e-6, 0.0, 1.0, float("inf"))
    ]
    for n, d0, k in ((5, 4, 2), (10, 16, 8)):
        p = pr.primitive_poset(*[1] * n)
        rep = pr.make_rep(p, d0, {e: random_subspace(rng, d0, k) for e in p.elements})
        cases.append((rep, pr.Weight(Fraction(n * k, d0), {e: 1 for e in p.elements}), 15))
    for rep, weight, budget in cases:
        _, report = pr.kempf_ness_flow(rep, weight, opts)
        assert report.status == "converged"
        assert report.iterations <= budget, (rep.ambient_dim, report.iterations)
        assert 0 < report.step <= 1
        assert report.hvp >= report.iterations


# ---------------------------------------------------------------------------
# invariants

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


def _necklace_count(n: int, m: int) -> int:
    """Necklaces of length m over n letters: (1/m) sum_{d | m} phi(d) n^(m/d)."""
    phi = [sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1) for d in range(m + 1)]
    return sum(phi[d] * n ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


def _random_projection_system(rng, n, d0, only=None):
    """n rank-random projections of C^d0 on a shuffled antichain, or of
    ranks only[0], only[1], only[0], ... when given."""
    p = shuffled(rng, pr.primitive_poset(*[1] * n))
    ranks = {e: only[i % 2] if only else int(rng.integers(0, d0 + 1))
             for i, e in enumerate(p.elements)}
    projs = {}
    for e in p.elements:
        q = random_subspace(rng, d0, ranks[e])
        projs[e] = q @ q.conj().T
    return pr.ProjectionSystem(p, pr.Weight(1, {e: 1 for e in p.elements}), projs, ranks)


def _trace_bound(max_len: int, d0: int) -> float:
    """Rounding bound on a trace of a word of length <= max_len of
    projections of C^d0, formed in any association."""
    return max_len * d0 * d0 * np.finfo(float).eps


def test_unitary_invariants_match_oracle(rng):
    """Keys and their order exactly, and the values to rounding, against
    one left-to-right product per word from scratch; mixed ranks and a
    stored order that is not sorted.  (10, 16, 4) is the size the benchmark
    runs; (4, 3, 4, (0, 3)) and (3, 2, 3, (2, 0)) have only rank-0 and
    full-rank projections, (3, 0, 3, (0, 0)) lives in C^0 and
    (0, 2, 4, None) is the empty poset.  The two routes associate the
    products differently, so the values agree only to rounding (observed
    within 0.17 of the bound)."""
    cases = [(1, 2, 4, None), (3, 3, 5, None), (4, 2, 4, None), (6, 5, 3, None),
             (10, 4, 4, None), (10, 16, 4, None), (5, 3, 0, None), (5, 3, 1, None),
             (1, 3, 1, None), (4, 3, 4, (0, 3)), (3, 2, 3, (2, 0)), (3, 6, 6, None),
             (3, 0, 3, (0, 0)), (0, 2, 4, None)]
    for n, d0, max_len, only in cases:
        ps = _random_projection_system(rng, n, d0, only)
        got = pr.unitary_invariants(ps, max_len)
        want = oracle_unitary_invariants(ps, max_len)
        assert list(got) == list(want)
        bound = _trace_bound(max_len, d0)
        assert all(abs(got[k] - want[k]) <= bound for k in want), (n, d0, max_len)
        for m in range(1, max_len + 1):
            assert sum(len(k) == m for k in got) == _necklace_count(n, m)


def test_unitary_invariants_reversal_is_conjugate(rng):
    """The P_e are Hermitian, so tr(P_{wk} ... P_{w1}) is the conjugate of
    tr(P_{w1} ... P_{wk}): the key of each word's reversal holds the
    conjugate value, with no product formed outside the function."""
    ps = _random_projection_system(rng, 10, 16)
    inv = pr.unitary_invariants(ps, 4)
    index = {e: k for k, e in enumerate(ps.poset.elements)}

    def key(word):
        rots = [word[k:] + word[:k] for k in range(len(word))]
        return min(rots, key=lambda t: [index[e] for e in t])

    bound = _trace_bound(4, 16)
    chiral = 0
    for word, value in inv.items():
        mirror = key(word[::-1])
        chiral += mirror != word
        assert abs(inv[mirror] - value.conjugate()) <= bound, word
    assert chiral > 0


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
    assert payload["hvp"] == report.hvp >= report.iterations
    assert payload["step"] == report.step == 1.0


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
