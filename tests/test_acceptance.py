"""Acceptance gate.

Twelve end-to-end checks, one test each, every tolerance pinned in place.
Each test prints a single verdict line so a plain-text log shows the
criterion outcomes at a glance.
"""

import itertools
import json
import time

import numpy as np
import pytest

import posetrep as pr
from posetrep import fileio
from posetrep.cli import main
from posetrep.linalg import herm_expm, random_complex
from conftest import all_strict_orders, oracle_rep_finite, poset_from_pairs, random_nested_rep, random_poset

GENERIC_LAMBDAS = (2, -1, 0.5, 3 + 4j)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {label} {detail}"


@pytest.fixture(scope="module")
def generic_runs():
    runs = []
    for lam in GENERIC_LAMBDAS:
        rep = pr.four_lines_rep(lam)
        t0 = time.perf_counter()
        system, report = pr.kempf_ness_flow(rep, pr.FOURSPACE_WEIGHT)
        runs.append((lam, system, report, time.perf_counter() - t0))
    return runs


def test_01_flow_convergence_four_lines(generic_runs):
    bad = [
        (lam, report.status, report.residual, report.iterations, secs)
        for lam, _, report, secs in generic_runs
        if report.status != "converged"
        or report.residual >= 1e-8
        or report.iterations > 20000
        or secs >= 5.0
    ]
    _verdict(1, "orthoscalar convergence", not bad, repr(bad))


def test_02_sphere_invariant(generic_runs, rng):
    worst_sum = 0.0
    for _, system, _, _ in generic_runs:
        a2, b2, c2 = pr.fourspace_parameters(system)
        worst_sum = max(worst_sum, abs(a2 + b2 + c2 - 1.0))
    worst_param = 0.0
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a, b, c = (float(x) for x in v)
        got = pr.fourspace_parameters(pr.sphere_projection_system(a, b, c))
        worst_param = max(
            worst_param, max(abs(g - e) for g, e in zip(got, (a * a, b * b, c * c)))
        )
    ok = worst_sum < 1e-6 and worst_param < 1e-10
    _verdict(2, "sphere invariant", ok, f"sum={worst_sum!r} param={worst_param!r}")


def test_03_exceptional_points():
    # The four lines at lambda in {0, 1, inf} are indecomposable (dim End =
    # 1: two of the lines coincide, and a matrix keeping the three distinct
    # lines is scalar) with a score-0 line (the doubled one), so they are
    # semistable but not polystable: an indecomposable polystable rep is
    # stable.  Boundary orbits reach the zero fiber only polynomially, so
    # the flow runs to 1e-4 and the split of the limit's closed orbit is
    # read off at the matching sqrt-scale tolerance 1e-2.
    details = []
    ok = True
    for lam in pr.EXCEPTIONAL_LAMBDAS:
        rep = pr.four_lines_rep(lam)
        verdict = pr.stability_check(rep, pr.FOURSPACE_WEIGHT)
        system, report = pr.kempf_ness_flow(
            rep, pr.FOURSPACE_WEIGHT, pr.FlowOptions(tol=1e-4)
        )
        parts = (
            pr.decompose(system.subspace_rep(tol=1e-2), tol=1e-2)
            if system is not None
            else []
        )
        good = (
            verdict.classification == pr.SEMISTABLE_NOT_POLYSTABLE
            and report.status == "converged"
            and sorted(p.ambient_dim for p in parts) == [1, 1]
        )
        ok = ok and good
        details.append((lam, verdict.classification, report.status, len(parts)))
    _verdict(3, "exceptional points split", ok, repr(details))


def test_04_tame_dimension_formulas():
    values = {}
    for chains, entries in pr.TAME_DIM_VECTORS.items():
        p = pr.primitive_poset(*chains)
        qd = pr.quotient_dim_lower_bound(pr.bound_quiver_of(p), pr.DimVector(entries))
        values[chains] = qd.value
    ok = all(v == 1 for v in values.values())
    _verdict(4, "tame quotient dimension is 1", ok, repr(values))


def test_05_n4_assignment_search(capsys, tmp_path):
    poset_path = tmp_path / "n4.poset"
    poset_path.write_text(fileio.serialize_poset(pr.n4_poset()))
    code = main(
        [
            "dim-quotient",
            str(poset_path),
            "-d",
            "5; 2, 4, 3, 2; 1, 2, 3, 4",
            "--search-assignments",
            "--expect",
            "1",
        ]
    )
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("assignment ")]
    report = pr.assignment_report(
        pr.n4_poset(), pr.N4_ROOT_DIM, pr.N4_GROUPS, target=1
    )
    values = sorted({v for _, v in report.assignments})
    ok = (
        code == 0
        and len(rows) == len(report.assignments) > 0
        and values == [-3, -2, 0]
        and (report.matched or "DISCREPANCY" in out)
    )
    _verdict(5, "(N,4) search completes and reports", ok, out)


def test_06_cartan_equals_zeta():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        p = random_poset(rng, int(rng.integers(0, 7)))
        cm = pr.cartan_matrix(pr.bound_quiver_of(p))
        for i, src in enumerate(cm.order):
            for j, dst in enumerate(cm.order):
                if src == dst:
                    expect = 1
                elif dst == pr.ROOT:
                    expect = 1
                elif src == pr.ROOT:
                    expect = 0
                else:
                    expect = 1 if p.precedes(src, dst) else 0
                if cm.entries[i][j] != expect:
                    _verdict(6, "Cartan matrix is the zeta matrix", False,
                             f"{p.elements} {src}->{dst}")
        checked += 1
    _verdict(6, "Cartan matrix is the zeta matrix", True)


def test_07_finiteness_agreement():
    ok = pr.is_representation_finite(pr.primitive_poset(1, 2)).finite
    ok = ok and not pr.is_representation_finite(pr.primitive_poset(1, 1, 1, 1)).finite
    mismatches = []
    for n in range(5):
        for rel in all_strict_orders(n):
            p = poset_from_pairs(n, rel)
            if pr.is_representation_finite(p).finite != oracle_rep_finite(p):
                mismatches.append((n, sorted(rel)))
    _verdict(7, "finiteness matches brute-force oracle", ok and not mismatches,
             repr(mismatches[:3]))


def test_08_stable_implies_schurian(rng):
    instances = []
    for k in range(10):
        lam = complex(rng.normal(), rng.normal())
        rep = pr.four_lines_rep(lam)
        if k % 2:
            rep = rep.transformed(np.eye(2) + 0.4 * random_complex(rng, 2, 2))
        instances.append((rep, pr.FOURSPACE_WEIGHT))
    p12 = pr.primitive_poset(1, 2)
    one = np.ones((1, 1), dtype=complex)
    patterns = [
        {"a1": one, "a3": one},
        {"a2": one, "a3": one},
        {"a1": one, "a2": one, "a3": one},
        {"a3": one},
        {"a1": one},
    ]
    for k in range(10):
        rep = pr.make_rep(p12, 1, patterns[k % len(patterns)])
        # Classification as stable also demands the weighted trace identity,
        # so chi0 is set to the weighted dimension sum.
        entries = {e: 1 + (k + i) % 2 for i, e in enumerate(p12.elements)}
        chi0 = sum(entries[e] * rep.dim(e) for e in p12.elements)
        instances.append((rep, pr.Weight(chi0, entries)))
    bad = []
    for rep, chi in instances:
        verdict = pr.stability_check(rep, chi)
        end_dim = len(pr.endomorphism_algebra(rep))
        if verdict.classification != pr.STABLE or end_dim != 1:
            bad.append((rep.dims(), verdict.classification, end_dim))
    _verdict(8, "stable instances are Schurian", len(instances) == 20 and not bad,
             repr(bad))


def test_09_equivalence_transfer(rng):
    base = pr.four_lines_rep(2)
    ref, _ = pr.kempf_ness_flow(base, pr.FOURSPACE_WEIGHT)
    ref_inv = pr.unitary_invariants(ref, 4)
    worst = 0.0
    for _ in range(10):
        h = random_complex(rng, 2, 2)
        while abs(np.linalg.det(h)) < 0.1:
            h = random_complex(rng, 2, 2)
        moved, _ = pr.kempf_ness_flow(base.transformed(h), pr.FOURSPACE_WEIGHT)
        inv = pr.unitary_invariants(moved, 4)
        worst = max(worst, max(abs(ref_inv[k] - inv[k]) for k in ref_inv))
    _verdict(9, "equivalence transfers to unitary classes", worst < 1e-6, repr(worst))


def test_10_directional_derivative(rng):
    triples = 0
    worst = 0.0
    while triples < 50:
        if triples % 2:
            rep = pr.four_lines_rep(complex(rng.normal(), rng.normal()))
            w = pr.FOURSPACE_WEIGHT
        else:
            p = random_poset(rng, int(rng.integers(1, 5)))
            rep = random_nested_rep(rng, p, int(rng.integers(1, 4)))
            if sum(rep.dims().values()) == 0:
                continue
            w = pr.Weight(2, {e: 1 + int(rng.integers(0, 3)) for e in p.elements})
        g = np.eye(rep.ambient_dim, dtype=complex) + 0.3 * random_complex(
            rng, rep.ambient_dim, rep.ambient_dim
        )
        h = random_complex(rng, rep.ambient_dim, rep.ambient_dim)
        h = (h + h.conj().T) / 2
        der = pr.kn_directional_derivative(rep, g, w, h)

        def f(t):
            mu = pr.moment_value(rep, herm_expm(t * h) @ g, w)
            return float(np.linalg.norm(mu)) ** 2

        num = (f(1e-5) - f(-1e-5)) / 2e-5
        worst = max(worst, abs(der - num) / max(1.0, abs(num)))
        triples += 1
    _verdict(10, "directional derivative matches differences", worst < 1e-5,
             repr(worst))


def test_11_commuting_projection_case():
    p = pr.primitive_poset(1, 1)
    v2 = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    rep = pr.make_rep(p, 2, {"a1": np.array([[1.0], [0.0]], dtype=complex), "a2": v2})
    w = pr.Weight(1, {"a1": 1, "a2": 1})
    system, report = pr.kempf_ness_flow(rep, w)
    p1, p2 = system.projections["a1"], system.projections["a2"]
    cross = float(np.linalg.norm(p1 @ p2))
    complement = float(np.linalg.norm(p2 - (np.eye(2) - p1)))
    refused = False
    try:
        pr.kempf_ness_flow(rep, pr.Weight(2, {"a1": 1, "a2": 1}))
    except pr.NoTraceIdentity:
        refused = True
    ok = report.status == "converged" and cross < 1e-8 and complement < 1e-6 and refused
    _verdict(11, "commuting projections and refusal", ok,
             f"cross={cross!r} comp={complement!r} refused={refused}")


def test_12_round_trips(rng, tmp_path):
    worst = 0.0
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(1, 6)))
        rep = random_nested_rep(rng, p, int(rng.integers(1, 4)))
        back = pr.quiver_to_rep(pr.rep_to_quiver(rep))
        for e in p.elements:
            q1, q2 = rep.spans[e], back.spans[e]
            gap = np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T)
            worst = max(worst, float(gap))
    files_ok = True
    poset_path = tmp_path / "anti.poset"
    poset_path.write_text(fileio.serialize_poset(pr.FOUR_ANTICHAIN))
    s = fileio.serialize_poset(pr.FOUR_ANTICHAIN)
    files_ok &= fileio.serialize_poset(fileio.parse_poset(s)) == s
    s = fileio.serialize_rep(pr.four_lines_rep(0.5 + 2j), "anti.poset")
    loaded, used = fileio.parse_rep(s, base_dir=str(tmp_path))
    files_ok &= fileio.serialize_rep(loaded, used) == s
    system, _ = pr.kempf_ness_flow(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    s = fileio.serialize_projection_system(system, "anti.poset")
    ps, used = fileio.parse_projection_system(s, base_dir=str(tmp_path))
    files_ok &= fileio.serialize_projection_system(ps, used) == s
    d = fileio.parse_dim_vector("5; 2, 4, 3, 2")
    files_ok &= fileio.parse_dim_vector(fileio.serialize_dim_vector(d)).entries == d.entries
    w = fileio.parse_weight("2; 1, 1, 1, 1", pr.FOUR_ANTICHAIN)
    files_ok &= (
        fileio.serialize_weight(w, pr.FOUR_ANTICHAIN) == "2; 1, 1, 1, 1"
    )
    ok = worst < 1e-10 and bool(files_ok)
    _verdict(12, "translation and file round trips", ok,
             f"projector_gap={worst!r} files_ok={files_ok}")
