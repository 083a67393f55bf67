import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import posetrep as pr
from posetrep import families, linalg, moment
from posetrep.linalg import herm_expm, random_complex, random_subspace
from posetrep.moment import _MomentMap
from conftest import (
    bent_lines_rep,
    oracle_hessian,
    oracle_moment,
    oracle_orthoscalar_check,
    oracle_unitary_invariants,
    planted_line_rep,
    random_antichain_rep,
    random_nested_input,
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


def test_check_report_as_dict_keeps_its_keys_and_values():
    """The six fields in order, then passed: the worst of the first five
    below tol."""
    names = ("hermitian", "idempotent", "rank_deviation", "nesting", "scalar", "tol")
    for values, passed in (((1e-9, 2e-9, 0.0, 3e-9, 4e-9, 1e-8), True),
                           ((1e-9, 2e-9, 0.0, 1e-8, 4e-9, 1e-8), False)):
        d = pr.CheckReport(*values).as_dict()
        assert list(d) == [*names, "passed"]
        assert d == {**dict(zip(names, values)), "passed": passed}


def test_orthoscalar_check_flags_bad_scalar():
    p = pr.primitive_poset(1, 1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    projs = {"a1": E1 @ E1.conj().T, "a2": E1 @ E1.conj().T}
    out = pr.orthoscalar_check(pr.ProjectionSystem(p, w, projs, {"a1": 1, "a2": 1}))
    assert not out.passed
    assert out.as_dict()["scalar"] > 0.5


def test_orthoscalar_check_matches_per_element_oracle(rng):
    """Every violation, from the batched projector stack, against one
    projection and one order pair at a time: on nested reps of random
    posets, so that the nesting term is live, both at their projectors and
    with the projectors moved by noise, so that no term is 0.  The sums
    run in another order, so they agree to 16 d0^2 eps relative to the
    larger of 1 and the oracle's value."""
    eps = np.finfo(float).eps
    nested = 0
    for _ in range(20):
        rep, chi, chi0 = random_nested_input(rng)
        d0 = rep.ambient_dim
        w = pr.Weight(chi0 if chi0 > 0 else 1, chi)
        ranks = {e: rep.dim(e) for e in rep.poset.elements}
        nested += bool(rep.poset.pairs)
        for noise in (0.0, 0.1):
            projs = {e: q @ q.conj().T + noise * random_complex(rng, d0, d0)
                     for e, q in rep.spans.items()}
            ps = pr.ProjectionSystem(rep.poset, w, projs, ranks)
            report = pr.orthoscalar_check(ps)
            got = (report.hermitian, report.idempotent, report.rank_deviation,
                   report.nesting, report.scalar)
            for g, want in zip(got, oracle_orthoscalar_check(ps)):
                assert abs(g - want) <= 16 * d0 * d0 * eps * max(1.0, want), (got, want)
    assert nested >= 10
    bad = perp_system()
    bad.projections["a2"] = np.eye(3, dtype=complex)
    with pytest.raises(pr.WrongShape):
        pr.orthoscalar_check(bad)


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
    reps with mixed widths (zero included) under well-conditioned metrics:
    the projector stack in poset order and mu."""
    widths_seen = set()
    mixed = 0
    for _ in range(60):
        p = shuffled(rng, random_poset(rng, int(rng.integers(1, 8))))
        d0 = int(rng.integers(1, 7))
        rep = random_nested_rep(rng, p, d0)
        chi = {e: int(rng.integers(1, 6)) for e in p.elements}
        w = pr.Weight(int(rng.integers(1, 6)), chi)
        g = (random_unitary(rng, d0) * np.exp(rng.uniform(-1.5, 1.5, d0))) @ random_unitary(rng, d0)
        p_stack, mu = _MomentMap(rep, w)(g)
        want_projs, want_mu = oracle_moment(rep, w, g)
        assert p_stack.shape == (len(p), d0, d0)
        assert np.linalg.norm(mu - want_mu) <= 1e-12
        for e, got in zip(p.elements, p_stack):
            assert np.linalg.norm(got - want_projs[e]) <= 1e-12
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


def test_single_width_group_is_the_projector_stack_bit_for_bit(rng):
    """Where one width group holds every element (lines, or planes of one
    width), the group's projectors are returned as the stack itself; they
    equal, bit for bit, those written into a zero stack element by
    element."""
    for k, d0 in ((1, 2), (1, 5), (2, 4), (3, 5)):
        p = pr.primitive_poset(*[1] * 5)
        rep = pr.make_rep(p, d0, {e: random_subspace(rng, d0, k) for e in p.elements})
        w = pr.Weight(Fraction(5 * k, d0), {e: 1 for e in p.elements})
        g = (random_unitary(rng, d0) * np.exp(rng.uniform(-1.5, 1.5, d0))) @ random_unitary(rng, d0)
        mmap = _MomentMap(rep, w)
        assert mmap.whole
        projs, mu = mmap(g)
        mmap.whole = False
        want_projs, want_mu = mmap(g)
        assert np.array_equal(projs, want_projs) and np.array_equal(mu, want_mu)


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
    """One SVD per run while the condition bound stays below COND_CAP / 2
    (that of the final metric, for the reported condition and the
    normalization), one Hermitian exponential per step trial, and one QR
    per span width of 2 or more per moment-map evaluation, none for lines;
    counts, not timings.  A bound forced to inf or nan takes the exact
    condition at every accepted step, one SVD each, and leaves the run as
    it was."""
    cases = [
        (pr.four_lines_rep(3 + 4j), pr.FOURSPACE_WEIGHT, pr.FlowOptions(), 0),
        (*_mixed_width_rep(rng), pr.FlowOptions(max_iter=40), 1),
        (*planted_line_rep(rng), pr.FlowOptions(), 1),
    ]
    counts = {"svd": 0, "qr": 0, "expm": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(linalg, "herm_expm", counted("expm", linalg.herm_expm))
    for rep, w, opts, groups in cases:
        counts.update(svd=0, qr=0, expm=0)
        _, free = pr.kempf_ness_flow(rep, w, opts)
        assert free.attempts >= free.iterations > 0
        assert counts["expm"] == free.attempts
        assert counts["qr"] == groups * (free.attempts + 1)
        assert counts["svd"] == 1
        for bound in (math.inf, math.nan):
            monkeypatch.setattr(moment, "math", SimpleNamespace(sqrt=math.sqrt,
                                                                exp=lambda _, b=bound: b))
            counts.update(svd=0)
            _, report = pr.kempf_ness_flow(rep, w, opts)
            monkeypatch.setattr(moment, "math", math)
            assert counts["svd"] == sum(t > 0 for t in report.steps) + 1
            assert (report.status, report.history) == (free.status, free.history)
            assert report.condition == free.condition


def test_flow_stops_at_the_first_metric_past_the_condition_cap(monkeypatch, rng):
    """COND_CAP set between and at the exact conditions of the iterates of a
    planted unstable input, each read off the run capped at that many
    iterations: the flow stops with a plateau at the first iterate whose
    condition passes the cap, reports that condition, and its history is a
    prefix of the free run's.  So the bound neither stops a run early nor
    lets one past the cap, and the SVDs it calls for leave the iterates as
    they were."""
    rep, w = planted_line_rep(rng)
    _, free = pr.kempf_ness_flow(rep, w)
    conditions = [pr.kempf_ness_flow(rep, w, pr.FlowOptions(max_iter=i))[1].condition
                  for i in range(free.iterations + 1)]
    caps = [math.sqrt(a * b) for a, b in zip(conditions, conditions[1:])][::3]
    caps += conditions[2::5]
    caps = [cap for cap in caps if cap < max(conditions)]
    assert len(caps) >= 5
    for cap in caps:
        monkeypatch.setattr(moment, "COND_CAP", cap)
        first = next(i for i, c in enumerate(conditions) if c > cap)
        system, report = pr.kempf_ness_flow(rep, w)
        assert system is None and report.status == "plateau"
        assert report.iterations == first and report.condition == conditions[first]
        assert report.history == free.history[: first + 1]


def test_flow_reports_the_exact_condition_of_a_unit_metric(rng):
    """The reported condition is the condition of the final metric, and
    that metric has spectral norm 1, however the run ends."""
    cases = [(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT, pr.FlowOptions()),
             (*planted_line_rep(rng), pr.FlowOptions()),
             (*_mixed_width_rep(rng), pr.FlowOptions(max_iter=3)),
             (*_mixed_width_rep(rng), pr.FlowOptions(max_iter=0))]
    for rep, w, opts in cases:
        _, report = pr.kempf_ness_flow(rep, w, opts)
        g = report.final_metric
        assert report.condition == pytest.approx(linalg.condition_number(g), rel=1e-9)
        assert np.linalg.norm(g, 2) == pytest.approx(1.0, abs=1e-14)


def _stopped(rep, w, tols, max_iter=moment.FlowOptions.max_iter):
    """The flow's run stopped at each tolerance of tols in turn: its last
    stop (projector stack, mu and report)."""
    run = moment._flow_run(rep, w, tols[0], max_iter)
    out = next(run)
    for tol in tols[1:]:
        out = run.send(tol)
    return out


def _assert_same_run(got, want):
    """The same projectors, mu, report and final metric, bit for bit."""
    (projs, mu, report), (fresh_projs, fresh_mu, fresh) = got, want
    assert projs.tobytes() == fresh_projs.tobytes() and mu.tobytes() == fresh_mu.tobytes()
    assert report.as_dict() == fresh.as_dict()
    assert report.final_metric.tobytes() == fresh.final_metric.tobytes()


def _seeded_flow_input(seed: int):
    """An antichain rep (bent toward a common line for every other odd
    seed) or, for even seeds, a nested rep of a random poset at the chi0 of
    its trace identity (1, without the identity, where every V_e is 0)."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        return random_antichain_rep(rng, bent=seed % 4 == 1)
    rep, chi, chi0 = random_nested_input(rng)
    return rep, pr.Weight(chi0 if chi0 > 0 else 1, chi)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([(1e-2, 1e-8), (1e-2, 1e-12), (1e-8, 1e-12), (0.5, 1e-2)]),
       st.sampled_from([0, 5, moment.FlowOptions.max_iter]))
def test_resumed_run_is_the_fresh_run(seed, tols, max_iter):
    """A run stopped at tol a and sent b < a stops where a fresh run to b
    does, with the same projectors, mu, report and final metric bit for
    bit: the stop test reads only the run's state and the tolerance, and a
    stop keeps no array or list the run goes on changing.  The first stop
    is ``kempf_ness_flow``'s, with the projection system of its stack when
    it has converged."""
    rep, w = _seeded_flow_input(seed)
    assume(w.trace_identity(rep))  # no flow runs without it
    a, b = tols
    run = moment._flow_run(rep, w, a, max_iter)
    first = next(run)
    _assert_same_run(run.send(b), _stopped(rep, w, [b], max_iter))
    _assert_same_run(first, _stopped(rep, w, [a], max_iter))
    system, report = pr.kempf_ness_flow(rep, w, pr.FlowOptions(a, max_iter))
    assert report.as_dict() == first[2].as_dict()
    assert (system is None) == (report.status != "converged")
    if system is not None:
        assert list(system.projections) == list(rep.poset.elements)
        assert system.ranks == rep.dims()
        for p, fresh in zip(system.projections.values(), first[0]):
            assert p.tobytes() == fresh.tobytes()


def test_resumed_run_decides_the_stop_at_the_new_tolerance(monkeypatch):
    """Two equal lines in C^2 (unstable: a plateau under every tolerance),
    and the four lines at lambda = 1e-6 with STALL_WINDOW at 1, where the
    first iteration stalls at a residual of about 0.51: a run stopped at a
    tolerance above that residual has converged, and sent 1e-8 it must
    stop on the same iterate with a plateau, as a fresh run to 1e-8 does,
    not iterate on."""
    same = two_lines(E1, E1)
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    for max_iter in (0, 5, moment.FlowOptions.max_iter):
        _assert_same_run(_stopped(same, w, [1e-2, 1e-8], max_iter),
                         _stopped(same, w, [1e-8], max_iter))
    monkeypatch.setattr(moment, "STALL_WINDOW", 1)
    rep = pr.four_lines_rep(1e-6)
    fresh = _stopped(rep, pr.FOURSPACE_WEIGHT, [1e-8])
    k, history = fresh[2].iterations, fresh[2].history
    assert fresh[2].status == "plateau" and fresh[2].steps[-1] > 0 and k >= 1
    a = math.sqrt(history[k] * history[k - 1])
    assert _stopped(rep, pr.FOURSPACE_WEIGHT, [a])[2].status == "converged"
    _assert_same_run(_stopped(rep, pr.FOURSPACE_WEIGHT, [a, 1e-8]), fresh)


def test_next_continues_a_run_past_its_stall():
    """Five lines in C^2, three within 1.4e-6 of a common line (stable but
    near an unstable class): the run to 1e-8 stalls after 22 iterations.
    ``next`` continues the same run with the stall window restarted there,
    and it converges after 27 iterations; the stall's history, steps and
    trials begin those of the converged stop.  A line planted in four of
    six planes (unstable) stalls again after one whole window, not after
    the first iteration past its stall."""
    rep, w = bent_lines_rep(5, 3, 1.4e-6, 2)
    run = moment._flow_run(rep, w, 1e-8, moment.FlowOptions.max_iter)
    stall = next(run)[2]
    assert stall.status == "plateau" and stall.condition <= moment.COND_CAP
    assert stall.iterations == 22
    stop = next(run)[2]
    assert stop.status == "converged" and stop.iterations == 27
    k = stall.iterations
    assert stop.history[: k + 1] == stall.history
    assert stop.steps[:k] == stall.steps and stop.trials[:k] == stall.trials
    run = moment._flow_run(*planted_line_rep(np.random.default_rng(0)), 1e-8,
                           moment.FlowOptions.max_iter)
    stall, again = next(run)[2], next(run)[2]
    assert stall.status == again.status == "plateau"
    assert again.iterations == stall.iterations + moment.STALL_WINDOW


def test_next_yields_a_stop_that_is_no_stall_again():
    """A stop past COND_CAP (input 43 of the nested sequence of seed 7, as
    in ``test_a_flow_stopped_at_the_condition_cap_certifies_unstable``), a
    stop at the iteration cap and a converged stop: ``next`` yields the
    same projectors, mu, report and final metric again."""
    rng = np.random.default_rng(7)
    for _ in range(44):
        rep, chi, chi0 = random_nested_input(rng)
    lines = pr.four_lines_rep(2)
    cases = [(rep, pr.Weight(chi0, chi), moment.FlowOptions.max_iter),
             (lines, pr.FOURSPACE_WEIGHT, 2),
             (lines, pr.FOURSPACE_WEIGHT, moment.FlowOptions.max_iter)]
    statuses = []
    for rep, w, max_iter in cases:
        run = moment._flow_run(rep, w, 1e-8, max_iter)
        stop = next(run)
        statuses.append(stop[2].status)
        _assert_same_run(next(run), stop)
        if stop[2].status == "plateau":
            assert stop[2].condition > moment.COND_CAP
    assert statuses == ["plateau", "max_iter", "converged"]


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


def test_flow_plateau_at_the_condition_cap_below_tol():
    """Input 43 of the seeded nested sequence (see test_stability.py): its
    metric passes COND_CAP in iteration 20.  With tol between the residuals
    of iterations 19 and 20, the residual reads below tol in the step that
    passes the cap; the run still ends as a plateau there, with the same
    iterates as the run at the default tol, and returns no system."""
    rng = np.random.default_rng(7)
    for _ in range(44):
        rep, chi, chi0 = random_nested_input(rng)
    w = pr.Weight(chi0, chi)
    _, free = pr.kempf_ness_flow(rep, w)
    assert free.status == "plateau" and free.condition > moment.COND_CAP
    tol = (free.history[-2] + free.history[-1]) / 2
    system, report = pr.kempf_ness_flow(rep, w, pr.FlowOptions(tol=tol))
    assert system is None and report.status == "plateau"
    assert report.residual < tol and report.condition > moment.COND_CAP
    assert report.history == free.history and report.iterations == free.iterations


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


def _mirror_key(ps):
    """The least rotation (by element index) of a word's reversal."""
    index = {e: k for k, e in enumerate(ps.poset.elements)}

    def key(word):
        rots = [word[::-1][k:] + word[::-1][:k] for k in range(len(word))]
        return min(rots, key=lambda t: [index[e] for e in t])
    return key


def test_unitary_invariants_reversal_is_conjugate(rng):
    """The P_e are Hermitian, so tr(P_{wk} ... P_{w1}) is the conjugate of
    tr(P_{w1} ... P_{wk}): the key of each word's reversal holds exactly
    the conjugate value, with no product formed outside the function."""
    ps = _random_projection_system(rng, 10, 16)
    inv = pr.unitary_invariants(ps, 4)
    mirror_key = _mirror_key(ps)
    chiral = 0
    for word, value in inv.items():
        mirror = mirror_key(word)
        chiral += mirror != word
        assert inv[mirror] == value.conjugate(), word
    assert chiral > 0


def test_unitary_invariants_self_mirror_words_are_real(rng):
    """A word that is its own reversal up to rotation has a real trace,
    stored with imaginary part exactly 0.0 (not -0.0); every word of length
    at most 2 is one.  Ten letters up to length 4 have 715 of them."""
    ps = _random_projection_system(rng, 10, 16)
    inv = pr.unitary_invariants(ps, 4)
    mirror_key = _mirror_key(ps)
    real = [word for word in inv if mirror_key(word) == word]
    assert all(word in real for word in inv if len(word) <= 2)
    assert len(real) == 715
    for word in real:
        assert math.copysign(1.0, inv[word].imag) == 1.0 and inv[word].imag == 0.0, word


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
    d = report.as_dict()
    assert list(d) == [f.name for f in dataclasses.fields(report)]
    for name in ("history", "steps", "trials", "hvps"):
        assert d[name] == getattr(report, name) and d[name] is not getattr(report, name)
    payload = json.loads(json.dumps(d))
    assert payload["status"] == "converged"
    assert payload["iterations"] == report.iterations
    assert payload["attempts"] == report.attempts >= report.iterations
    assert payload["hvp"] == report.hvp >= report.iterations
    assert payload["step"] == report.step == 1.0
    assert payload["hvps"] == report.hvps and len(report.hvps) == report.iterations
    assert sum(report.hvps) == report.hvp


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


def _raw_fourth_line(lam):
    if lam == math.inf:
        return np.array([[0.0], [1.0]], dtype=complex)
    return np.array([[1.0], [lam]], dtype=complex)


def test_four_lines_rep_is_make_rep_of_the_raw_lines():
    """The unit vectors written down by four_lines_rep: every column has
    norm 1, and the projectors equal those of make_rep of the raw lines
    e1, e2, e1 + e2, e1 + lam e2 to 1e-15, also at 1e-300 and 1e300, where
    1 + |lam|^2 would underflow to 1 or overflow."""
    e1, e2 = np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)
    for lam in (*pr.EXCEPTIONAL_LAMBDAS, 2, 3 + 4j, 1e-300, 1e300):
        rep = pr.four_lines_rep(lam)
        raw = pr.make_rep(pr.FOUR_ANTICHAIN, 2, dict(zip(
            pr.FOUR_ANTICHAIN.elements, (e1, e2, e1 + e2, _raw_fourth_line(lam)))))
        for e in pr.FOUR_ANTICHAIN.elements:
            q, want = rep.spans[e], raw.spans[e]
            assert q.shape == (2, 1) and q.dtype == complex
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-15, (lam, e)
            assert np.max(np.abs(q @ q.conj().T - want @ want.conj().T)) <= 1e-15, (lam, e)


def _coincidence_ratios(lam):
    """tan(theta / 2) for every pair of the four unit lines at lam, as
    linalg.subspace_intersections reads it: the ratio of the singular
    values of [u, -v]."""
    cols = [q[:, 0] for q in pr.four_lines_rep(lam).spans.values()]
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            s = np.linalg.svd(np.column_stack([cols[i], -cols[j]]), compute_uv=False)
            out.append(s[1] / s[0])
    return out


def test_four_lines_summands_match_the_scorer():
    """The closed-form split (four_lines_summands, from 2x2 determinants)
    against the scores of the input lines by _Scorer's batched SVD, the
    reading it replaces: 1 iff every V_e scores below 0.  lambda runs over
    the boundary points, points within 1e-10 of them, 1e10, points just
    inside and just outside the cut near 0 and infinity, and 400 random
    values with |lambda| log-uniform in 1e-12..1e12, times the default
    weight, (3; 3, 1, 1, 1) (where V1 scores 0 with any line on it) and 20
    random integer weights.  A lambda at which some pair of lines has
    tan(theta / 2) within 1e-6 of tol is left out: there the two routes
    may round to opposite sides of the cut."""
    rng = np.random.default_rng(35)
    p = pr.FOUR_ANTICHAIN
    weights = [pr.FOURSPACE_WEIGHT, pr.Weight(3, dict(zip(p.elements, (3, 1, 1, 1))))]
    for _ in range(20):
        chi = [int(c) for c in rng.integers(1, 8, 4)]
        weights.append(pr.Weight(Fraction(sum(chi), 2), dict(zip(p.elements, chi))))
    # 1.5e-9 and 1 / 1.5e-9 coincide with e1 and e2 (tan(theta / 2) about
    # 7.5e-10), 2.5e-9 does not
    lams = [*pr.EXCEPTIONAL_LAMBDAS, 2, 3 + 4j, 1e-10, 1 + 1e-10, 1e10, 1.5e-9, 1 / 1.5e-9, 2.5e-9]
    lams += [10 ** rng.uniform(-12, 12) * np.exp(2j * np.pi * rng.uniform()) for _ in range(400)]
    tol = linalg.DEFAULT_TOL
    kept = [lam for lam in lams
            if all(abs(t / tol - 1) > 1e-6 for t in _coincidence_ratios(lam))]
    assert len(kept) >= len(lams) - 4
    counts = {1: 0, 2: 0}
    for lam in kept:
        rep = pr.four_lines_rep(lam)
        for w in weights:
            scores = pr.linrep._Scorer(rep, w, tol)(list(rep.spans.values()))
            want = 1 if all(num < 0 for num, _ in scores) else 2
            assert families.four_lines_summands(lam, w) == want, (lam, w)
            counts[want] += 1
    assert min(counts.values()) > 500, counts
