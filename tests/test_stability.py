"""The flow's stability classifier against the lattice oracle.

``stability_check`` reads the verdict off the Kempf-Ness flow's limit with
a certificate, and returns the flow's own reading, marked uncertified and
inconclusive, when none closes; a weight without the trace identity takes
the verdict of its slope weight.  These tests compare it on seeded random
reps with ``oracle_lattice_verdict`` (the lattice closure and the Schur
test, in ``conftest``), check each certificate on inputs of known class,
check the Hessian against the dense Kronecker oracle, check the Cholesky
certificate of ``stable`` against the Schur route it replaced, and check
the slope-weight reduction against the lattice oracle and the verdict
against that of the orthogonal complements.
"""

from fractions import Fraction
from math import inf, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import posetrep as pr
from posetrep import linalg, moment, stability
from posetrep.linalg import herm_expm, random_complex, subspace_intersection
from conftest import (
    bent_lines_rep,
    direct_sum,
    oracle_hessian,
    oracle_lattice_verdict,
    oracle_stable_margin,
    planted_line_rep,
    random_antichain_rep,
    random_nested_input,
    random_unitary,
)

W_LINES = pr.Weight(1, {"a1": 1, "a2": 1})
#: the lattice oracle's cap: its pairwise closure takes seconds at 512
#: members, and every verdict compared here is decided within 64
CAP = 64


def test_flow_route_matches_lattice_route():
    """On 40 seeded antichain reps (C^2..C^6, weights 1-3, every other one
    bent toward a common line) the verdict is the lattice oracle's, and a
    verdict of the flow that scores a subspace has the lattice's best score
    (at least that, where the closure overflowed its cap); every verdict is
    certified, none inconclusive.  Every ``flow_unstable`` verdict carries
    its HN type, pieces of falling slopes that fill V; among these reps are
    two- and three-step types."""
    rng = np.random.default_rng(2026)
    routes, hn_steps = set(), set()
    for i in range(40):
        rep, w = random_antichain_rep(rng, bent=i % 2 == 1)
        v = pr.stability_check(rep, w)
        lattice = oracle_lattice_verdict(rep, w, cap=CAP)
        route = v.diagnostics["route"]
        routes.add(route)
        assert v.classification == lattice.classification, (i, route)
        assert not v.inconclusive and v.diagnostics["inconclusive_reasons"] == []
        if v.classification == pr.STABLE:
            assert v.witness is None and v.best_score is None
            continue
        if lattice.overflow:
            assert v.best_score >= lattice.best_score
        else:
            assert v.best_score == lattice.best_score
        assert pr.subspace_score(rep, w, v.witness) == v.best_score
        if route == "flow_unstable":
            dims, slopes = v.diagnostics["hn_dims"], v.diagnostics["hn_slopes"]
            hn_steps.add(len(dims))
            assert sum(dims) == rep.ambient_dim
            assert [Fraction(x) for x in slopes] == sorted(map(Fraction, slopes), reverse=True)
            assert len(set(slopes)) == len(slopes)
    assert {"flow_stable", "flow_unstable", "flow_boundary"} <= routes
    assert {2, 3} <= hn_steps


def test_block_sums_are_never_stable():
    """Block sums of stable reps of one slope are polystable, split on the
    flow route into the summands (each certified stable): four lines in C^2
    with four others or with themselves (dim End = 4), three such, and two
    sets of five 2-planes in C^4.  The lattice oracle splits them too, into
    summands of the same dims and classes."""
    rng = np.random.default_rng(36)
    p4, p5 = pr.primitive_poset(1, 1, 1, 1), pr.primitive_poset(*[1] * 5)
    w4, w5 = pr.FOURSPACE_WEIGHT, pr.Weight(Fraction(5, 2), {e: 1 for e in p5.elements})
    for _ in range(3):
        a, b = (pr.make_rep(p4, 2, {e: random_complex(rng, 2, 1) for e in p4.elements})
                for _ in range(2))
        c, d = (pr.make_rep(p5, 4, {e: random_complex(rng, 4, 2) for e in p5.elements})
                for _ in range(2))
        for rep, w, parts in ((direct_sum(a, b), w4, 2), (direct_sum(a, a), w4, 2),
                              (direct_sum(direct_sum(a, b), a), w4, 3),
                              (direct_sum(c, d), w5, 2)):
            v = pr.stability_check(rep, w)
            assert v.classification == pr.POLYSTABLE_NOT_STABLE
            assert v.diagnostics["route"] == "flow_split" and not v.inconclusive
            summands = v.diagnostics["summands"]
            assert len(summands) == parts
            assert all(s["classification"] == pr.STABLE for s in summands)
            assert v.best_score == 0 == pr.subspace_score(rep, w, v.witness)
            lattice = oracle_lattice_verdict(rep, w, cap=CAP)
            assert lattice.classification == pr.POLYSTABLE_NOT_STABLE
            assert sorted(lattice.summands) == sorted(
                (s["dims"], s["classification"]) for s in summands)


def test_hessian_matches_dense_oracle():
    """The trace-zero spectrum of L at random metrics is the dense
    Kronecker matrix's spectrum less the identity's zero, and the Hermitian
    matrix of each returned eigenvector (row-major) satisfies
    L(x) = lambda x."""
    rng = np.random.default_rng(37)
    for i in range(12):
        rep, w = random_antichain_rep(rng, bent=i % 2 == 1)
        d0 = rep.ambient_dim
        g = np.eye(d0) + 0.3 * random_complex(rng, d0, d0)
        mmap = moment._MomentMap(rep, w)
        p, _ = mmap(g)
        values, vectors = stability._spectrum(stability._hessian(p, mmap.chi))
        dense = oracle_hessian(dict(zip(rep.poset.elements, p)), w)
        want = np.linalg.eigvalsh(dense)
        assert abs(want[0]) < 1e-12
        assert np.allclose(values, want[1:], atol=1e-10)
        for lam, v in zip(values, vectors.T):
            # L commutes with x -> x*, so the Hermitian line of an
            # eigenvector is one too
            x = stability._hermitian(v, d0)
            lx, _ = mmap.hessian(p, x)
            assert np.linalg.norm(lx - lam * x) < 1e-10 * np.linalg.norm(x)


def test_stable_margin_and_boundary():
    """Generic four lines: the Cholesky certifies stable, with lambda_min
    the bound s(r), which leaves the residual within a quarter of it.  At lambda in {0, 1, inf} lambda_min shrinks
    with the residual, at r / lambda_min near 1/sqrt(8) > 1/4: the
    boundary route, with a score-0 line as witness."""
    for lam in (2, -1, 0.5, 3 + 4j, 1e-7):
        v = pr.stability_check(pr.four_lines_rep(lam), pr.FOURSPACE_WEIGHT)
        d = v.diagnostics
        assert v.classification == pr.STABLE and d["route"] == "flow_stable"
        assert d["residual"] <= stability.MARGIN_FACTOR * d["lambda_min"]
        assert d["end_dim"] == 1 and d["gap"] < 0
    for lam in pr.EXCEPTIONAL_LAMBDAS:
        rep = pr.four_lines_rep(lam)
        v = pr.stability_check(rep, pr.FOURSPACE_WEIGHT)
        d = v.diagnostics
        assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE
        assert d["route"] == "flow_boundary" and d["end_dim"] == 1
        assert 0.3 < d["residual"] / d["lambda_min"] < 0.4
        assert v.witness.shape == (2, 1)
        assert pr.subspace_score(rep, pr.FOURSPACE_WEIGHT, v.witness) == 0


def test_margin_branch_certifies_where_the_cholesky_cannot(monkeypatch):
    """The four lines at lambda = 1e-7 and 1e-6 (two of them nearly one
    line): lambda_min at the limit, about 4 lambda, is below the Cholesky's
    bound s(r), so the Cholesky fails and the Schur test runs.  dim End = 1
    and r <= lambda_min / 4 (MARGIN_FACTOR) certify stable; with that
    branch off no certificate closes, so it is the only one these inputs
    have."""
    chi = np.ones(4)
    for lam in (1e-7, 1e-6):
        rep = pr.four_lines_rep(lam)
        system, report = pr.kempf_ness_flow(rep, pr.FOURSPACE_WEIGHT)
        lmat = stability._hessian(np.stack(list(system.projections.values())), chi)
        assert not stability._positive_beyond(
            lmat, stability._stable_bound(report.residual, chi), chi)
        v = pr.stability_check(rep, pr.FOURSPACE_WEIGHT)
        d = v.diagnostics
        assert v.classification == pr.STABLE and d["route"] == "flow_stable"
        assert not v.inconclusive and "schur" in d["times_ms"] and d["end_dim"] == 1
        assert d["residual"] <= stability.MARGIN_FACTOR * d["lambda_min"]
        assert d["lambda_min"] < stability._stable_bound(d["residual"], chi)
    monkeypatch.setattr(stability, "MARGIN_FACTOR", 0.0)
    for lam in (1e-7, 1e-6):
        v = pr.stability_check(pr.four_lines_rep(lam), pr.FOURSPACE_WEIGHT)
        assert v.diagnostics["route"] == "uncertified" and v.inconclusive


def test_early_cholesky_certifies_before_the_full_flow():
    """The four lines at lambda = 2 and five generic 2-planes in C^4: the
    Cholesky closes at the early tolerance, so the verdict comes in fewer
    iterations than the flow takes to its full tolerance, at a residual
    below the early one, with lambda_min the bound s(r) at that residual."""
    rng = np.random.default_rng(26)
    p5 = pr.primitive_poset(*[1] * 5)
    planes = pr.make_rep(p5, 4, {e: random_complex(rng, 4, 2) for e in p5.elements})
    for rep, w in ((pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT),
                   (planes, pr.Weight(Fraction(5, 2), {e: 1 for e in p5.elements}))):
        v = pr.stability_check(rep, w)
        d = v.diagnostics
        assert v.classification == pr.STABLE and d["route"] == "flow_stable"
        assert set(d["times_ms"]) == {"flow", "hessian"} and d["end_dim"] == 1
        _, full = pr.kempf_ness_flow(rep, w)
        assert full.status == "converged" and d["flow_status"] == "converged"
        assert d["flow_iterations"] < full.iterations
        assert full.residual < 1e-8 < d["residual"] <= stability.EARLY
        chi = np.array([float(w.chi[e]) for e in rep.poset.elements])
        assert d["lambda_min"] == stability._stable_bound(d["residual"], chi)


def test_failed_early_cholesky_leaves_the_full_route(monkeypatch):
    """The four lines at lambda = 1e-6: where the flow meets the early
    tolerance, lambda_min (0.015, on its way to 4e-6 at the limit) is below
    the bound s(r) (0.084), so the early Cholesky fails and the same run
    continues to the full tolerance.  No step trial runs twice: the
    verdict makes one Hermitian exponential per trial it reports in
    ``flow_trials``.  The Cholesky runs once per flow run, at its first
    stop, and L is built once per stop: the full stop certifies ``stable``
    by the Schur test and the margin r <= lambda_min / 4, with lambda_min
    the least trace-zero eigenvalue of L.  Input 37 of the gate's
    antichain draw takes the same route.  With the early stop off (EARLY
    at 0, not above the full tolerance) the first stop is the full one,
    its L serves both, and verdict and diagnostics (times aside) are
    those with the early stop."""
    rep, w, early = pr.four_lines_rep(1e-6), pr.FOURSPACE_WEIGHT, stability.EARLY
    chi = np.ones(4)
    system, report = pr.kempf_ness_flow(rep, w, moment.FlowOptions(early))
    assert report.status == "converged"
    lmat = stability._hessian(np.stack(list(system.projections.values())), chi)
    bound = stability._stable_bound(report.residual, chi)
    assert stability._spectrum(lmat)[0][0] < bound
    assert not stability._positive_beyond(lmat, bound, chi)
    rng = np.random.default_rng(2026)
    for i in range(38):
        antichain = random_antichain_rep(rng, bent=i % 2 == 1)
    expm, positive, hessian = linalg.herm_expm, stability._positive_beyond, stability._hessian
    calls = []

    def exponential(h):
        calls.append("exp")
        return expm(h)

    def factored(*args):
        calls.append(positive(*args))
        return calls[-1]

    def built(*args):
        calls.append("L")
        return hessian(*args)

    monkeypatch.setattr(linalg, "herm_expm", exponential)
    monkeypatch.setattr(stability, "_positive_beyond", factored)
    monkeypatch.setattr(stability, "_hessian", built)
    verdicts = []
    for early, (r, wt), builds in ((early, (rep, w), 2), (early, antichain, 2),
                                   (0.0, (rep, w), 1)):
        monkeypatch.setattr(stability, "EARLY", early)
        calls.clear()
        v = pr.stability_check(r, wt)
        d = v.diagnostics
        assert v.classification == pr.STABLE and not v.inconclusive
        assert v.witness is None and v.best_score is None and d["route"] == "flow_stable"
        assert "schur" in d["times_ms"] and d["lambda_min"] >= 4 * d["residual"]
        assert calls.count("exp") == d["flow_trials"]
        assert [c for c in calls if c != "exp"] == ["L", False] + ["L"] * (builds - 1)
        verdicts.append(v)
    assert verdicts[0].diagnostics["flow_trials"] > report.attempts
    with_early, without = ({k: x for k, x in v.diagnostics.items() if k != "times_ms"}
                           for v in (verdicts[0], verdicts[2]))
    assert with_early == without


def test_flow_stable_verdicts_hold_against_the_oracle():
    """Generic reps in C^2..C^10 (n k-planes, k <= d0 / 2, n k >= 2 d0,
    weights 1-3): every one is certified stable by the Cholesky alone,
    with no Schur test.  The oracle route it replaces agrees: dim End = 1
    from the Kronecker system, and the dense trace-zero lambda_min at the
    limit is at least the reported bound, which itself clears the
    residual by the old margin."""
    rng = np.random.default_rng(46)
    for d0 in range(2, 11):
        for _ in range(3):
            k = int(rng.integers(1, d0 // 2 + 1))
            n = -(-2 * d0 // k) + int(rng.integers(0, 3))
            p = pr.primitive_poset(*[1] * n)
            chi = {e: int(rng.integers(1, 4)) for e in p.elements}
            rep = pr.make_rep(p, d0, {e: random_complex(rng, d0, k) for e in p.elements})
            w = pr.Weight(Fraction(sum(chi.values()) * k, d0), chi)
            v = pr.stability_check(rep, w)
            d = v.diagnostics
            assert v.classification == pr.STABLE and d["route"] == "flow_stable"
            assert set(d["times_ms"]) == {"flow", "hessian"} and d["end_dim"] == 1
            system, _ = pr.kempf_ness_flow(rep, w)
            end_dim, lam = oracle_stable_margin(rep, w, system.projections)
            assert end_dim == 1
            assert lam >= d["lambda_min"] > 0
            assert d["residual"] <= stability.MARGIN_FACTOR * d["lambda_min"]


def test_sqrt_lambda_min_is_lipschitz_along_geodesics():
    """The step of the stable bound: along t -> exp(t y) g, |y|_F = 1, the
    square root of the least trace-zero eigenvalue of L moves by at most
    sqrt(2 sum chi) t, for random y and for y the eigenvector of that
    eigenvalue."""
    rng = np.random.default_rng(48)
    for i in range(16):
        rep, w = random_antichain_rep(rng, bent=i % 2 == 1)
        d0 = rep.ambient_dim
        mmap = moment._MomentMap(rep, w)
        g = np.eye(d0) + 0.3 * random_complex(rng, d0, d0)
        values, vectors = stability._spectrum(stability._hessian(mmap(g)[0], mmap.chi))
        z = random_complex(rng, d0, d0)
        for y in (z + z.conj().T, stability._hermitian(vectors[:, 0], d0)):
            y = y - np.trace(y) / d0 * np.eye(d0)
            y /= np.linalg.norm(y)
            for t in (1e-3, 1e-2, 0.1, 0.5):
                p = mmap(herm_expm(t * y) @ g)[0]
                moved = stability._spectrum(stability._hessian(p, mmap.chi))[0][0]
                step = abs(sqrt(max(moved, 0)) - sqrt(max(values[0], 0)))
                assert step <= sqrt(2 * mmap.chi.sum()) * t


def test_certificate_fails_where_the_limit_is_not_stable():
    """The Cholesky of L less s(r) fails at the flow's limit on equal-slope
    sums of isomorphic and of non-isomorphic stables (where L has a
    kernel) and on the four lines at lambda in {0, 1, inf} (where
    lambda_min shrinks with the residual); there the Schur test and the
    spectrum decide, as before."""
    rng = np.random.default_rng(47)
    p4, p5 = pr.primitive_poset(1, 1, 1, 1), pr.primitive_poset(*[1] * 5)
    w4, w5 = pr.FOURSPACE_WEIGHT, pr.Weight(Fraction(5, 2), {e: 1 for e in p5.elements})
    a, b = (pr.make_rep(p4, 2, {e: random_complex(rng, 2, 1) for e in p4.elements})
            for _ in range(2))
    c, d = (pr.make_rep(p5, 4, {e: random_complex(rng, 4, 2) for e in p5.elements})
            for _ in range(2))
    cases = [(direct_sum(a, a), w4), (direct_sum(a, b), w4),
             (direct_sum(c, c), w5), (direct_sum(c, d), w5)]
    cases += [(pr.four_lines_rep(lam), w4) for lam in pr.EXCEPTIONAL_LAMBDAS]
    for rep, w in cases:
        system, report = pr.kempf_ness_flow(rep, w)
        assert report.status == "converged"
        chi = np.array([float(w.chi[e]) for e in rep.poset.elements])
        lmat = stability._hessian(np.stack(list(system.projections.values())), chi)
        bound = stability._stable_bound(report.residual, chi)
        assert not stability._positive_beyond(lmat, bound, chi)
        v = pr.stability_check(rep, w)
        assert v.classification != pr.STABLE and "schur" in v.diagnostics["times_ms"]


def test_dual_bound_of_a_weight_past_the_float_square():
    """Two orthogonal lines in C^2 with weights (1; 10^-k, 1): the line of
    weight 1 destabilizes with score (1 - 10^-k) / 2, so the dual bound
    is (1 - 10^-k) / sqrt 2.  From k of about 154 the quotient under its
    root passes the float range and is scaled by a power of 4; the bound
    stays the closed form to a few ulps."""
    p = pr.primitive_poset(1, 1)
    rep = pr.make_rep(p, 2, {"a1": np.array([[1], [0]]), "a2": np.array([[0], [1]])})
    for k in (150, 160, 300):
        v = pr.stability_check(rep, pr.Weight(1, {"a1": Fraction(1, 10**k), "a2": 1}))
        d = v.diagnostics
        assert (v.classification, d["route"]) == (pr.UNSTABLE, "flow_unstable")
        assert d["dual_bound"] == pytest.approx(1 / sqrt(2), rel=1e-15)
        assert d["hn_slopes"] == ["1", str(Fraction(1, 10**k))]


def test_plateau_certificate_and_snap():
    """The planted line of four of six planes in C^4: the plateau's top
    eigenvector is the line up to about 1e-10, in the rank guard's band
    for some seeds; snapped, a line 1e-6 off it comes out as the line.  The
    dual bound of the flag, 2/sqrt(3), meets the residual: HN type
    (1, 3) with slopes (4, 8/3)."""
    for seed in range(4):
        rep, w = planted_line_rep(np.random.default_rng(seed))
        v = pr.stability_check(rep, w)
        d = v.diagnostics
        assert d["route"] == "flow_unstable" and d["flow_status"] == "plateau"
        assert v.best_score == 1 and v.witness.shape == (4, 1)
        assert abs(d["dual_bound"] - 2 / np.sqrt(3)) < 1e-12
        assert 0 <= d["gap"] < 1e-6
        assert d["hn_dims"] == [1, 3] and d["hn_slopes"] == ["4", "8/3"]
    line = subspace_intersection(rep.spans["a1"], rep.spans["a2"])
    rng = np.random.default_rng(38)
    off = line + 1e-6 * random_complex(rng, 4, 1)
    snapped = stability._snap(rep, off / np.linalg.norm(off), 1e-9)
    assert snapped.shape == (4, 1)
    assert np.linalg.norm(snapped - line @ (line.conj().T @ snapped)) < 1e-14
    assert pr.subspace_score(rep, w, snapped) == 1


def test_uncertified_reasons():
    """A weight without the trace identity is certified like any other: the
    four lines at chi0 = 3 take the flow route of their slope weight 2,
    with no reason.  Near two lines at 3e-9 the dimension of End hangs on
    the tolerance: no certificate closes, and the verdict says so, with the
    flow's own reading (no candidate was scored, so ``stable``)."""
    rep = pr.four_lines_rep(2)
    v = pr.stability_check(rep, pr.Weight(3, {e: 1 for e in rep.poset.elements}))
    assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE and not v.trace_identity
    assert v.diagnostics["route"] == "flow_stable"
    assert v.diagnostics["inconclusive_reasons"] == []
    assert v.methods == ("flow",) and v.diagnostics["flow_status"] == "converged"
    assert v.best_score is None and v.witness is None
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    near = np.array([[np.cos(3e-9)], [np.sin(3e-9)]], dtype=complex)
    lines = pr.make_rep(pr.primitive_poset(1, 1), 2, {"a1": e1, "a2": near})
    v = pr.stability_check(lines, W_LINES)
    d = v.diagnostics
    assert d["route"] == "uncertified" and d["inconclusive_reasons"] == ["rank_guard"]
    assert v.methods == ("flow",) and v.inconclusive
    assert v.classification == pr.STABLE and v.best_score is None


def test_lattice_route_runs_the_schur_test_without_proper_members():
    """With every V_e either 0 or V the lattice is {0, V}, and every score
    is 0, but dim End = d0^2 > 1: the Schur test splits V into d0 lines,
    each a stable summand of score 0.  So the lattice oracle is
    polystable_not_stable with the trace identity, with a score-0 witness,
    in C^2 and C^3, on an antichain and on a chain; ``stability_check``
    agrees, and without the trace identity it answers
    semistable_not_polystable from the slope weight."""
    anti, chain = pr.primitive_poset(1, 1, 1), pr.build_poset(["a", "b"], [("a", "b")])
    for d0 in (2, 3):
        full, zero = np.eye(d0, dtype=complex), np.zeros((d0, 0), dtype=complex)
        cases = [(pr.make_rep(anti, d0, {"a1": full, "a2": zero, "a3": full}),
                  {"a1": 1, "a2": 2, "a3": 3}, 4),
                 (pr.make_rep(chain, d0, {"a": zero, "b": full}), {"a": 2, "b": 1}, 1)]
        for rep, chi, chi0 in cases:
            assert len(pr.endomorphism_algebra(rep)) == d0 * d0
            w = pr.Weight(chi0, chi)
            assert w.trace_identity(rep)
            lattice = oracle_lattice_verdict(rep, w)
            assert lattice.scored == 0 and len(lattice.summands) == d0
            assert lattice.classification == pr.POLYSTABLE_NOT_STABLE
            assert lattice.best_score == 0 == pr.subspace_score(rep, w, lattice.witness)
            for v, expected in ((pr.stability_check(rep, w), pr.POLYSTABLE_NOT_STABLE),
                                (pr.stability_check(rep, pr.Weight(chi0 + 1, chi)),
                                 pr.SEMISTABLE_NOT_POLYSTABLE)):
                assert v.classification == expected
                assert v.best_score == 0 and not v.inconclusive
                assert v.witness.shape == (d0, 1)
                assert pr.subspace_score(rep, w, v.witness) == 0


def test_stall_reps_certify_stable_on_a_second_run():
    """Lines within 1.4e-6, 3.7e-6 and 4.3e-6 of a common line: the flow
    hovers near the norm of the unstable class nearby (0.54 to 0.85) and
    stops on a plateau after 21-22 iterations.  No flag candidate scores
    above 0, so the same run continues past its stall, converges within 6
    more iterations, and the Schur test and the margin certify stable.
    ``flow_iterations`` counts that one run: a run to 1e-8 continued once."""
    for n, m, eps, seed in ((5, 3, 1.4e-6, 2), (7, 4, 3.7e-6, 1), (5, 3, 4.3e-6, 3)):
        rep, w = bent_lines_rep(n, m, eps, seed)
        run = moment._flow_run(rep, w, 1e-8, moment.FlowOptions.max_iter)
        report = next(run)[2]
        assert report.status == "plateau" and report.iterations <= 25
        continued = next(run)[2]
        v = pr.stability_check(rep, w)
        d = v.diagnostics
        assert v.classification == pr.STABLE and not v.inconclusive
        assert d["route"] == "flow_stable" and d["flow_status"] == "converged"
        assert report.iterations < d["flow_iterations"] == continued.iterations
        assert continued.iterations <= report.iterations + 6
        assert v.methods == ("flow",) and d["end_dim"] == 1


def test_sum_with_a_boundary_summand_is_not_polystable():
    """A block sum with the four lines at lambda = 0 as a summand splits on
    the flow route; that summand is semistable_not_polystable, so the sum
    is too (dim End = 2, or 4 for two boundary copies)."""
    boundary, generic = pr.four_lines_rep(0), pr.four_lines_rep(2 + 1j)
    for rep, end_dim in ((direct_sum(boundary, generic), 2),
                         (direct_sum(generic, boundary), 2),
                         (direct_sum(boundary, boundary), 4)):
        v = pr.stability_check(rep, pr.FOURSPACE_WEIGHT)
        assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE
        assert v.diagnostics["route"] == "flow_split"
        assert v.diagnostics["end_dim"] == end_dim
        routes = sorted(s["route"] for s in v.diagnostics["summands"])
        assert "flow_boundary" in routes and len(routes) == 2


def _seeded_antichain(i: int):
    """Rep i of the seeded antichain sequence of the stability gate."""
    rng = np.random.default_rng(2026)
    for j in range(i + 1):
        rep, w = random_antichain_rep(rng, bent=j % 2 == 1)
    return rep, w


def test_plateau_certifies_on_its_first_plateau():
    """Rep 11 of the seeded antichain sequence (C^5): the flow stalls at
    residual 0.756, far above the dual bound 0.447 of its flag's best line
    (score 2/5).  The pieces of the hull's flag, that line and the quotient
    C^4, are each certified semistable at their own slopes 8 and 15/2, so
    the hull is the HN polygon: unstable from the first plateau, with the
    run read at that stop only and the lattice oracle's best score."""
    rep, w = _seeded_antichain(11)
    _, report = pr.kempf_ness_flow(rep, w)
    assert report.status == "plateau" and report.residual > 0.75
    v = pr.stability_check(rep, w)
    d = v.diagnostics
    assert d["route"] == "flow_unstable" and d["inconclusive_reasons"] == []
    assert d["flow_iterations"] == report.iterations and d["residual"] == report.residual
    assert d["gap"] > 0.3
    assert d["hn_dims"] == [1, 4] and d["hn_slopes"] == ["8", "15/2"]
    assert v.best_score == Fraction(2, 5) == pr.subspace_score(rep, w, v.witness)
    assert v.best_score == oracle_lattice_verdict(rep, w, cap=CAP).best_score


def test_a_flow_stopped_at_the_condition_cap_certifies_unstable(monkeypatch):
    """Input 43 of the seeded nested sequence (a 3-plane and a 2-plane of
    C^4): the step of the flow's iteration 20 would take its metric past
    COND_CAP (as the run with no cap shows), so it is refused, and the run
    ends as a plateau at the last metric inside the cap.  The plateau's
    flag certifies unstable from there, with HN type (1, 1, 2) and the
    lattice oracle's best score, and the reported residual is at least the
    dual bound of that type."""
    rng = np.random.default_rng(7)
    for _ in range(44):
        rep, chi, chi0 = random_nested_input(rng)
    w = pr.Weight(chi0, chi)
    _, report = pr.kempf_ness_flow(rep, w)
    assert report.status == "plateau" and report.steps[-1] == 0.0
    assert moment.COND_CAP / 2 < report.condition <= moment.COND_CAP
    with monkeypatch.context() as m:
        m.setattr(moment, "COND_CAP", inf)
        _, uncapped = pr.kempf_ness_flow(rep, w, pr.FlowOptions(max_iter=report.iterations))
    assert uncapped.steps[-1] > 0 and uncapped.condition > moment.COND_CAP
    v = pr.stability_check(rep, w)
    d = v.diagnostics
    assert d["route"] == "flow_unstable" and d["flow_iterations"] == report.iterations
    assert d["residual"] == report.residual
    assert d["dual_bound"] <= d["residual"] * (1 + 1e-6)
    assert d["hn_dims"] == [1, 1, 2] and not v.inconclusive
    assert v.best_score == Fraction(5, 2) == pr.subspace_score(rep, w, v.witness)
    assert v.best_score == oracle_lattice_verdict(rep, w).best_score


def test_a_second_run_starts_from_an_ill_conditioned_plateau():
    """Rep 281 of the antichain sequence of seed 99 (C^5): the flow stalls
    after 27 iterations at a metric of condition 3e9, and the plateau's
    flag holds no destabilizer.  That metric squashes a 3-plane below the
    rank tolerance, so ``transformed`` refuses g V, and no new run could
    start from g V as a representation; the same run continues past its
    stall in its own state instead, with no change of frame, and certifies
    unstable, with HN type (4, 1) and the lattice oracle's best score
    1/5."""
    rng = np.random.default_rng(99)
    for i in range(282):
        rep, w = random_antichain_rep(rng, bent=i % 2 == 1)
    _, report = pr.kempf_ness_flow(rep, w)
    assert report.status == "plateau" and report.condition > 1e9
    with pytest.raises(pr.RankDeficient):
        rep.transformed(report.final_metric)
    v = pr.stability_check(rep, w)
    d = v.diagnostics
    assert d["route"] == "flow_unstable" and d["flow_iterations"] > report.iterations
    assert d["hn_dims"] == [4, 1] and not v.inconclusive
    assert v.best_score == Fraction(1, 5) == pr.subspace_score(rep, w, v.witness)
    assert v.best_score == oracle_lattice_verdict(rep, w, cap=CAP).best_score


def test_an_uncertified_piece_refines_the_flag(monkeypatch):
    """Rep 108 of the seeded antichain sequence (C^6): the flow does not
    certify some piece of the plateau's flag.  That piece is classified by
    ``stability_check`` in its own frame; its destabilizer, lifted into V,
    joins the candidates, and the hull taken again is the HN polygon: type
    (1, 3, 1, 1) with slopes 5, 13/3, 4 and 3, and best score 4/3, the
    lattice oracle's."""
    rep, w = _seeded_antichain(108)
    semistable, uncertified = stability._semistable, []

    def spy(piece, pw):
        ok = semistable(piece, pw)
        if not ok:
            uncertified.append(piece.ambient_dim)
        return ok

    monkeypatch.setattr(stability, "_semistable", spy)
    v = pr.stability_check(rep, w)
    d = v.diagnostics
    assert uncertified
    assert d["route"] == "flow_unstable" and d["inconclusive_reasons"] == []
    assert d["hn_dims"] == [1, 3, 1, 1] and d["hn_slopes"] == ["5", "13/3", "4", "3"]
    assert v.best_score == Fraction(4, 3) == pr.subspace_score(rep, w, v.witness)
    assert v.best_score == oracle_lattice_verdict(rep, w, cap=CAP).best_score


def test_hn_type_of_a_sum_of_stables_of_unequal_slope():
    """The four lines at lambda = 2 (C^2, slope 2) plus four generic lines
    in C^3 (slope 4/3), both stable: with weight (8/5; 1, 1, 1, 1) the sum
    is unstable in either order.  Its HN filtration is the summand of
    larger slope, then V: type (2, 3) with the summands' slopes, and the
    witness is that summand, of score 4 - 2 * 8/5 = 4/5."""
    lines, rng = pr.four_lines_rep(2), np.random.default_rng(5)
    p = lines.poset
    generic = pr.make_rep(p, 3, {e: random_complex(rng, 3, 1) for e in p.elements})
    ones = {e: 1 for e in p.elements}
    assert pr.stability_check(lines, pr.Weight(2, ones)).classification == pr.STABLE
    assert pr.stability_check(generic, pr.Weight(Fraction(4, 3), ones)).classification == pr.STABLE
    for rep, block in ((direct_sum(lines, generic), slice(0, 2)),
                       (direct_sum(generic, lines), slice(3, 5))):
        v = pr.stability_check(rep, pr.Weight(Fraction(8, 5), ones))
        d = v.diagnostics
        assert d["route"] == "flow_unstable" and d["inconclusive_reasons"] == []
        assert d["hn_dims"] == [2, 3] and d["hn_slopes"] == ["2", "4/3"]
        assert v.best_score == Fraction(4, 5) and v.witness.shape == (5, 2)
        outside = np.delete(v.witness, block, axis=0)
        assert np.linalg.norm(outside) < 1e-8


# ---------------------------------------------------------------------------
# weights without the trace identity: the verdict at the slope weight

def test_off_slope_weight_takes_the_slope_weights_verdict():
    """On 40 nested reps of random posets, built as in the stability gate,
    the verdict at (sigma + 1; chi) is the verdict at the slope weight
    (sigma; chi) with every class but unstable read as
    semistable_not_polystable: same best score, witness and route, and
    trace_identity false.  The lattice oracle at (sigma; chi) gives the
    same split into unstable and not unstable, and the same best score on
    every unstable verdict."""
    rng = np.random.default_rng(7)
    classes = set()
    for _ in range(40):
        rep, chi, sigma = random_nested_input(rng)
        at = pr.stability_check(rep, pr.Weight(sigma, chi))
        off = pr.stability_check(rep, pr.Weight(sigma + 1, chi))
        classes.add(at.classification)
        assert at.trace_identity and not off.trace_identity
        mapped = pr.UNSTABLE if at.classification == pr.UNSTABLE else pr.SEMISTABLE_NOT_POLYSTABLE
        assert off.classification == mapped
        assert off.best_score == at.best_score
        assert (off.witness is None) == (at.witness is None)
        if at.witness is not None:
            assert np.array_equal(off.witness, at.witness)
        assert off.diagnostics["route"] == at.diagnostics["route"]
        assert off.diagnostics["sigma"] == str(sigma)
        lattice = oracle_lattice_verdict(rep, pr.Weight(sigma, chi), cap=CAP)
        assert (lattice.classification == pr.UNSTABLE) == (off.classification == pr.UNSTABLE)
        if off.classification == pr.UNSTABLE:
            assert off.best_score == lattice.best_score
    assert {pr.UNSTABLE, pr.POLYSTABLE_NOT_STABLE, pr.STABLE} <= classes


def test_zero_slope_closed_form():
    """sigma = 0 leaves no slope weight: every V_e is 0 and every score 0.
    In C^3 the verdict is semistable_not_polystable with best score 0 and a
    coordinate line as witness; in C^1 with neither.  No method runs."""
    p = pr.primitive_poset(1, 2)
    w = pr.Weight(1, {"a1": 1, "a2": 2, "a3": 3})
    for d0 in (1, 3):
        rep = pr.make_rep(p, d0, {e: np.zeros((d0, 0), dtype=complex) for e in p.elements})
        v = pr.stability_check(rep, w)
        assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE
        assert v.diagnostics["route"] == "zero_slope" and v.diagnostics["sigma"] == "0"
        assert v.methods == () and not v.inconclusive and not v.trace_identity
        assert v.diagnostics["inconclusive_reasons"] == [] and v.diagnostics["times_ms"] == {}
        if d0 == 1:
            assert v.best_score is None and v.witness is None
        else:
            assert v.best_score == 0 and v.witness.shape == (3, 1)
            assert pr.subspace_score(rep, w, v.witness) == 0


def test_five_planes_off_slope_report_no_best_score():
    """Five generic 2-planes in C^4 at chi0 = 5/2 + 1: the slope weight's
    flow certifies stable, so the verdict is semistable_not_polystable with
    best score None.  The lattice oracle's best member, a plane, scores -3,
    which is not the maximum: a plane meeting four of the five in lines
    scores -1."""
    rng = np.random.default_rng(41)
    p = pr.primitive_poset(*[1] * 5)
    rep = pr.make_rep(p, 4, {e: random_complex(rng, 4, 2) for e in p.elements})
    chi = {e: 1 for e in p.elements}
    v = pr.stability_check(rep, pr.Weight(Fraction(7, 2), chi))
    assert v.classification == pr.SEMISTABLE_NOT_POLYSTABLE
    assert v.diagnostics["route"] == "flow_stable"
    assert v.best_score is None and v.witness is None
    lattice = oracle_lattice_verdict(rep, pr.Weight(Fraction(5, 2), chi))
    assert lattice.classification == pr.STABLE and lattice.best_score == -3


def test_flow_route_is_scale_invariant():
    """A weight and its multiples take one route: the four lines at
    lambda = 2 with every chi_e = s and chi0 = 2 s take ``flow_stable`` at
    s = 1, 1/3^20 and 1/3^30, where the floor 2 / (den sqrt d0) falls far
    below the default tolerance 1e-8, because the flow's tolerances scale
    with the least chi_e below 1; the residual scales with s, and is below
    the early tolerance, where the Cholesky certifies."""
    rep = pr.four_lines_rep(2)
    residuals = []
    for s in (1, Fraction(1, 3**20), Fraction(1, 3**30)):
        w = pr.Weight(2 * s, {e: s for e in rep.poset.elements})
        v = pr.stability_check(rep, w)
        d = v.diagnostics
        assert v.classification == pr.STABLE and d["route"] == "flow_stable", s
        assert d["inconclusive_reasons"] == [] and d["residual"] < d["dual_bound"]
        assert d["flow_iterations"] <= 4
        residuals.append(d["residual"] / s)
    assert max(residuals) - min(residuals) <= 1e-9 * max(residuals)
    assert max(residuals) < stability.EARLY


def test_cholesky_certifies_c1_vacuously(monkeypatch):
    """A C^1 rep with the trace identity: the trace-zero matrices are {0},
    so the Cholesky of the 1 x 1 shifted L certifies stable with no Schur
    test, lambda_min the bound s(r) and dim End 1, also where the flow
    stops on a plateau short of the loose tolerance.  A converged residual
    not below the floor 2 / den (as rounding leaves it for weights of
    denominator 3^40) leaves the verdict uncertified before any route reads
    the empty trace-zero spectrum: stable, from no candidate, and
    inconclusive."""
    p = pr.primitive_poset(1, 1)
    rep = pr.make_rep(p, 1, {"a1": np.ones((1, 1), dtype=complex),
                             "a2": np.zeros((1, 0), dtype=complex)})
    w = pr.Weight(2, {"a1": 2, "a2": 3})
    v = pr.stability_check(rep, w)
    d = v.diagnostics
    assert v.classification == pr.STABLE and d["route"] == "flow_stable"
    assert set(d["times_ms"]) == {"flow", "hessian"} and d["end_dim"] == 1
    chi = np.array([2.0, 3.0])
    assert d["lambda_min"] == stability._stable_bound(d["residual"], chi)
    # 1/10 + 1/5 - 3/10 rounds to 5.6e-17: above the loose tolerance 1e-18
    # and below the floor 2e-16, so the flow stops on its plateau there, and
    # the Cholesky decides at that stop as at a converged one
    p3 = pr.primitive_poset(1, 1, 1)
    line = np.ones((1, 1), dtype=complex)
    rep3 = pr.make_rep(p3, 1, {"a1": line, "a2": line, "a3": np.zeros((1, 0), dtype=complex)})
    w3 = pr.Weight(Fraction(3, 10),
                   {"a1": Fraction(1, 10), "a2": Fraction(1, 5), "a3": Fraction(1, 10**16)})
    v = pr.stability_check(rep3, w3)
    d = v.diagnostics
    assert v.classification == pr.STABLE and d["route"] == "flow_stable"
    assert d["flow_status"] == "plateau" and 1e-18 < d["residual"] < d["dual_bound"]
    assert set(d["times_ms"]) == {"flow", "hessian"} and d["end_dim"] == 1
    chi3 = np.array([0.1, 0.2, 1e-16])
    assert d["lambda_min"] == stability._stable_bound(d["residual"], chi3)
    run = moment._flow_run

    def rounded(*args):
        # the route's run, with every stop reading the residual 1e-15
        stops = run(*args)
        stop = next(stops)
        while True:
            stop[2].residual = 1e-15
            stop = stops.send((yield stop))

    monkeypatch.setattr(moment, "_flow_run", rounded)
    tiny = Fraction(1, 3**40)
    v = pr.stability_check(rep, pr.Weight(tiny, {"a1": tiny, "a2": 3}))
    d = v.diagnostics
    assert v.classification == pr.STABLE and d["route"] == "uncertified" and v.inconclusive
    assert d["inconclusive_reasons"] == ["semistability_uncertified"]
    assert d["residual"] >= d["dual_bound"]


# ---------------------------------------------------------------------------
# metamorphic properties: the verdict does not see the frame or the scale

def _seeded_input(seed: int):
    """An antichain rep (bent toward a common line for every other odd
    seed) or, for even seeds, a nested rep of a random poset at the chi0 of
    its trace identity (1 where every V_e is 0), with the generator left
    after it."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        rep, w = random_antichain_rep(rng, bent=seed % 4 == 1)
    else:
        rep, chi, chi0 = random_nested_input(rng)
        w = pr.Weight(chi0 if chi0 > 0 else 1, chi)
    return rng, rep, w


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gauge_keeps_the_verdict(seed):
    """g V, for a random g of condition at most 10, has the classification
    and best score of V: the scores, and so the classes, are invariants of
    the GL-orbit.  Compared wherever both verdicts are certified; V's
    verdict is in almost every example."""
    rng, rep, w = _seeded_input(seed)
    d0 = rep.ambient_dim
    v = pr.stability_check(rep, w)
    assume(not v.inconclusive)
    g = random_unitary(rng, d0) @ np.diag(10 ** rng.uniform(0, 1, d0)) @ random_unitary(rng, d0)
    assert np.linalg.cond(g) <= 10 * (1 + 1e-12)
    moved = pr.stability_check(rep.transformed(g), w)
    if not moved.inconclusive:
        assert (moved.classification, moved.best_score) == (v.classification, v.best_score)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Fraction(2), Fraction(1, 3)]))
def test_scaling_keeps_the_verdict(seed, c):
    """The weight times 2 or 1/3 gives the same classification, with the
    best score times the same factor: every score scales with the weight,
    and the flow is scale-equivariant."""
    _, rep, w = _seeded_input(seed)
    v = pr.stability_check(rep, w)
    assume(not v.inconclusive)
    scaled = pr.stability_check(rep, pr.Weight(w.chi0 * c, {e: x * c for e, x in w.chi.items()}))
    assert not scaled.inconclusive
    assert scaled.classification == v.classification
    assert scaled.best_score == (None if v.best_score is None else v.best_score * c)


def _dual(rep, w):
    """Each V_e sent to its orthogonal complement on the opposite poset
    (V_a < V_b turns into V_b^perp < V_a^perp), with the chi_e kept and
    chi0' = sum chi_e (d0 - d_e) / d0, the slope of the complements; the
    rep and chi0', which is 0 when every V_e is the whole space."""
    p, d0 = rep.poset, rep.ambient_dim
    spans = {e: np.linalg.svd(q)[0][:, q.shape[1]:] for e, q in rep.spans.items()}
    chi0 = sum(w.chi[e] * (d0 - rep.dim(e)) for e in p.elements) / Fraction(d0)
    opposite = pr.Poset(p.elements, {(b, a) for a, b in p.pairs})
    return pr.make_rep(opposite, d0, spans), chi0


def _check_duality(rep, w):
    """f'(K^perp) = f(K) for every K, f' the score of the complements at
    their slope: dim(V_e^perp /\\ K^perp) = d0 - d_e - dim K + dim(V_e /\\ K),
    and sigma' = sum chi_e - sigma.  So the complements have the
    classification and best score of V, and the HN type reversed, with
    slopes sum chi_e - sigma_j.  Compared wherever both verdicts are
    certified: the two flows share no iterate, so each verdict checks the
    other."""
    dual, chi0 = _dual(rep, w)
    assume(chi0 > 0)
    v, u = pr.stability_check(rep, w), pr.stability_check(dual, pr.Weight(chi0, w.chi))
    assume(not v.inconclusive and not u.inconclusive)
    assert (u.classification, u.best_score) == (v.classification, v.best_score)
    if v.classification == pr.UNSTABLE:
        total = sum(w.chi.values())
        d, e = v.diagnostics, u.diagnostics
        assert e["hn_dims"] == d["hn_dims"][::-1]
        assert [Fraction(x) for x in e["hn_slopes"]] == [
            total - Fraction(x) for x in d["hn_slopes"][::-1]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_duality_keeps_the_verdict(seed):
    """Duality (``_check_duality``) on antichain reps, bent toward a common
    line for odd seeds; on an antichain the opposite poset is the poset."""
    rng = np.random.default_rng(seed)
    _check_duality(*random_antichain_rep(rng, bent=seed % 2 == 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(1902)
@example(1752279)
@example(1118849589)
@example(541705847)
def test_duality_keeps_the_verdict_on_nested_posets(seed):
    """Duality (``_check_duality``) on nested reps of random posets at the
    chi0 of their trace identity; the complements are nested along the
    opposite poset.  Seeds 1752279, 1118849589 and 541705847 stop their
    flows at the condition cap: a metric past it made ``_flag`` fail to
    solve with g on the first, and gave certified HN types that disagree
    with the complements' on the other two."""
    rep, chi, chi0 = random_nested_input(np.random.default_rng(seed))
    assume(chi0 > 0)
    _check_duality(rep, pr.Weight(chi0, chi))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(2088516584)
def test_an_unstable_verdict_keeps_weak_duality(seed):
    """Weak duality on every certified ``flow_unstable`` verdict: the flow's
    residual is at least the dual bound of the HN type it certifies, up to
    rounding (1e-6 relative), on antichain reps (bent toward a common line
    for odd seeds) and nested reps (even seeds) at their trace identity.
    Seed 2088516584 (nested) read a residual 59% below its dual bound when
    the flow could stop at a metric past the condition cap."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        rep, w = random_antichain_rep(rng, bent=seed % 4 == 1)
    else:
        rep, chi, chi0 = random_nested_input(rng)
        assume(chi0 > 0)
        w = pr.Weight(chi0, chi)
    d = pr.stability_check(rep, w).diagnostics
    assume(d["route"] == "flow_unstable")
    assert d["dual_bound"] <= d["residual"] * (1 + 1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_direct_sums_follow_kings_rule(seed):
    """King's rule on V + gV, for V an antichain rep in C^2..C^4 (bent
    toward a common line for odd seeds) and g of condition at most 10: V
    stable or polystable gives ``polystable_not_stable``, V semistable but
    not polystable gives the same class, and V unstable gives ``unstable``
    with twice V's best score (the HN polygon of the sum is V's scaled by
    2).  A sum V + W' with a summand W' of another slope, at the sum's
    trace-identity weight, is ``unstable``, with a best score at least that
    of the summand of larger slope.  Compared wherever the verdicts are
    certified."""
    rng = np.random.default_rng(seed)
    rep, w = random_antichain_rep(rng, bent=seed % 2 == 1)
    while rep.ambient_dim > 4:
        rep, w = random_antichain_rep(rng, bent=seed % 2 == 1)
    p, d0 = rep.poset, rep.ambient_dim
    v = pr.stability_check(rep, w)
    assume(not v.inconclusive)
    g = random_unitary(rng, d0) @ np.diag(10 ** rng.uniform(0, 1, d0)) @ random_unitary(rng, d0)
    both = pr.stability_check(direct_sum(rep, rep.transformed(g)), w)
    assume(not both.inconclusive)
    if v.classification == pr.UNSTABLE:
        assert (both.classification, both.best_score) == (pr.UNSTABLE, 2 * v.best_score)
    elif v.classification == pr.SEMISTABLE_NOT_POLYSTABLE:
        assert both.classification == pr.SEMISTABLE_NOT_POLYSTABLE
    else:
        assert both.classification == pr.POLYSTABLE_NOT_STABLE

    d1 = int(rng.integers(1, 4))
    other = pr.make_rep(p, d1, {e: random_complex(rng, d1, int(rng.integers(0, d1 + 1)))
                                for e in p.elements})
    mu, mu1 = w.slope(rep), w.slope(other)
    assume(mu != mu1)
    total = direct_sum(rep, other)
    sigma = w.slope(total)
    u = pr.stability_check(total, pr.Weight(sigma, w.chi))
    assume(not u.inconclusive)
    assert u.classification == pr.UNSTABLE
    assert u.best_score >= max(d0 * (mu - sigma), d1 * (mu1 - sigma))


def test_a_semistable_piece_is_not_passed_at_a_degenerate_metric():
    """Seed 1902 of the nested inputs (5 elements in C^3): the flow on the
    2-dim piece of slope 2 would read a residual below the tol of the
    semistability test in the step whose metric passes COND_CAP.  That
    step is refused and the run ends as a plateau, so the piece splits and
    the HN type has three lines, the reverse of its complements'."""
    rep, chi, chi0 = random_nested_input(np.random.default_rng(1902))
    v = pr.stability_check(rep, pr.Weight(chi0, chi))
    d = v.diagnostics
    assert (v.classification, v.best_score, v.inconclusive) == (pr.UNSTABLE, Fraction(14, 3), False)
    assert d["hn_dims"] == [1, 1, 1] and d["hn_slopes"] == ["9", "3", "1"]
