from fractions import Fraction

import numpy as np
import pytest

import posetrep as pr
from posetrep.bound_quiver import commutativity_ideal
from posetrep.poset import Quiver
from conftest import (
    all_strict_orders,
    cartan_inverse,
    cartan_solve,
    oracle_cartan,
    oracle_minimal_relation_counts,
    poset_from_pairs,
    random_poset,
    random_relabelled_poset,
)


def diamond() -> pr.Poset:
    return pr.build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def test_dim_vector_validation():
    p = pr.primitive_poset(1, 1)
    d = pr.DimVector((2, 1, 1))
    d.validate(p)
    assert d.by_vertex(p) == {pr.ROOT: 2, "a1": 1, "a2": 1}
    with pytest.raises(pr.WrongShape):
        pr.DimVector((2, 1)).validate(p)
    with pytest.raises(pr.WrongShape):
        pr.DimVector((2, -1, 1)).validate(p)


def test_bound_quiver_of_diamond_has_one_relation():
    bq = pr.bound_quiver_of(diamond())
    # parallel path pairs: two a->d routes and two a->* routes through d,
    # plus b->* and c->* pairs through d vs direct; only genuinely distinct
    # parallel pairs with both lengths >= 2 produce generators
    pairs = {(lhs[0], lhs[-1]) for lhs, _rhs in bq.relations}
    assert ("a", "d") in pairs
    counts = pr.minimal_relation_counts(bq)
    assert counts[("a", "d")] == 1


def test_minimal_relation_counts_drop_induced_relations():
    """Generators implied by shorter relations composed with arrows do not
    count toward r(i, j)."""
    p = pr.build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")],
    )
    counts = pr.minimal_relation_counts(pr.bound_quiver_of(p))
    assert counts[("a", "d")] == 1
    assert counts.get(("a", "e"), 0) == 0


def test_closed_forms_match_path_algebra_oracle():
    """Minimal relation counts (components of open intervals, minus one) and
    the Cartan matrix (reachability) agree with exact elimination over the
    path space, keys and their order included, on random posets with a
    shuffled element order."""
    rng = np.random.default_rng(12)
    into_root = 0
    for _ in range(120):
        p = random_relabelled_poset(rng, int(rng.integers(0, 8)))
        bq = pr.bound_quiver_of(p)
        counts = pr.minimal_relation_counts(bq)
        assert list(counts.items()) == list(oracle_minimal_relation_counts(bq).items())
        into_root += sum(t == pr.ROOT for _, t in counts)
        cm = pr.cartan_matrix(bq)
        assert (cm.order, cm.entries) == oracle_cartan(bq)
    assert into_root > 0


def test_commutativity_ideal_rejects_non_hasse():
    q = Quiver(vertices=("a", "b", "c"), arrows=(("a", "b"), ("b", "c"), ("a", "c")))
    with pytest.raises(pr.NotHasseQuiver):
        commutativity_ideal(q)


def test_cartan_unitriangular_and_integral():
    p = diamond()
    cm = pr.cartan_matrix(pr.bound_quiver_of(p))
    n = len(cm.order)
    pos = {v: i for i, v in enumerate(cm.order)}
    for i in range(n):
        assert cm.entries[i][i] == 1
        for j in range(n):
            if cm.entries[i][j]:
                assert i == j or pos[cm.order[i]] < pos[cm.order[j]]
    inv = cartan_inverse(cm)
    prod = np.array(cm.entries) @ np.array(inv)
    assert np.array_equal(prod, np.eye(n, dtype=int))


def zeta_matrix(p: pr.Poset, order):
    leq = set(p.pairs) | {(e, pr.ROOT) for e in p.elements}
    leq |= {(v, v) for v in order}
    return [[1 if (a, b) in leq else 0 for b in order] for a in order]


def test_cartan_equals_zeta_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(0, 7)))
        cm = pr.cartan_matrix(pr.bound_quiver_of(p))
        assert [list(r) for r in cm.entries] == zeta_matrix(p, cm.order)


def test_euler_form_unbound_formula_on_chains():
    """Chains have no relations, so the form reduces to
    sum_q d_q e_q - sum_{arrows s->t} d_s e_t."""
    p = pr.primitive_poset(3)
    bq = pr.bound_quiver_of(p)
    assert not bq.relations
    rng = np.random.default_rng(1)
    verts = bq.quiver.vertices
    for _ in range(10):
        d = pr.DimVector(tuple(int(x) for x in rng.integers(0, 5, len(p) + 1)))
        e = pr.DimVector(tuple(int(x) for x in rng.integers(0, 5, len(p) + 1)))
        dv = d.by_vertex(p)
        ev = e.by_vertex(p)
        direct = sum(dv[q] * ev[q] for q in verts) - sum(
            dv[s] * ev[t] for s, t in bq.quiver.arrows
        )
        assert pr.euler_form(bq, d, e) == direct


def test_euler_form_matches_inverse_cartan():
    """Moebius inversion over reachability against d^T C^{-1} e from the
    integer inverse of the Cartan matrix."""
    rng = np.random.default_rng(9)
    posets = [random_poset(rng, int(rng.integers(0, 8))) for _ in range(30)]
    for p in posets + [diamond()]:
        bq = pr.bound_quiver_of(p)
        cm = pr.cartan_matrix(bq)
        inv = np.array(cartan_inverse(cm), dtype=np.int64)
        for _ in range(3):
            d, e = (pr.DimVector(tuple(int(x) for x in rng.integers(0, 5, len(p) + 1)))
                    for _ in range(2))
            dx, ex = (np.array([x.by_vertex(p)[v] for v in cm.order]) for x in (d, e))
            got = pr.euler_form(bq, d, e)
            assert type(got) is int
            assert got == int(dx @ inv @ ex)


def test_euler_form_bilinear():
    p = diamond()
    bq = pr.bound_quiver_of(p)
    d = pr.DimVector((2, 1, 1, 1, 2))
    e = pr.DimVector((1, 0, 1, 1, 1))
    s = pr.DimVector(tuple(a + b for a, b in zip(d.entries, e.entries)))
    lhs = pr.euler_form(bq, s, s)
    rhs = (
        pr.euler_form(bq, d, d)
        + pr.euler_form(bq, d, e)
        + pr.euler_form(bq, e, d)
        + pr.euler_form(bq, e, e)
    )
    assert lhs == rhs


def test_quotient_dim_tame_families():
    for lengths, d in pr.TAME_DIM_VECTORS.items():
        p = pr.primitive_poset(*lengths)
        bq = pr.bound_quiver_of(p)
        assert pr.quotient_dim_lower_bound(bq, pr.DimVector(d)).value == 1


def test_quotient_dim_zero_vector_flag():
    p = pr.primitive_poset(1)
    bq = pr.bound_quiver_of(p)
    res = pr.quotient_dim_lower_bound(bq, pr.DimVector((0, 0)))
    assert res.value == 1 and res.empty_quotient


def test_quotient_dim_rejects_malformed_vectors():
    """Empty, short, long and negative vectors are WrongShape, as in
    euler_form."""
    bq = pr.bound_quiver_of(pr.primitive_poset(1, 1))
    for entries in ((), (1, 1), (1, 1, 1, 1), (1, -1, 1)):
        with pytest.raises(pr.WrongShape):
            pr.quotient_dim_lower_bound(bq, pr.DimVector(entries))
        if entries and min(entries) >= 0:
            with pytest.raises(pr.WrongShape):
                pr.euler_form(bq, pr.DimVector(entries))


def test_assignment_search_frozen_values():
    """Grouped entries (2,4,3,2) on the zigzag and (1,2,3,4) on the chain
    admit exactly three nesting-consistent placements; their formula values
    were computed once by independent evaluation and are pinned here."""
    rep = pr.assignment_report(pr.n4_poset(), pr.N4_ROOT_DIM, pr.N4_GROUPS, target=1)
    got = {
        tuple(dict(a)[k] for k in ("n1", "n2", "n3", "n4")): v
        for a, v in rep.assignments
    }
    assert got == {(2, 4, 2, 3): 0, (2, 3, 2, 4): -2, (3, 4, 2, 2): -3}
    assert all(dict(a)["c1"] == 1 for a, _ in rep.assignments)
    assert rep.matched is False


def test_enumerate_assignments_respects_nesting():
    p = pr.primitive_poset(2)
    out = pr.enumerate_assignments(p, ((1, 2),))
    assert out == [{"a1": 1, "a2": 2}]
    out = pr.enumerate_assignments(p, ((2, 2),))
    assert out == [{"a1": 2, "a2": 2}]
    with pytest.raises(pr.WrongShape):
        pr.enumerate_assignments(p, ((1, 2, 3),))


def test_rep_to_quiver_round_trip(rng):
    from conftest import random_nested_rep

    for _ in range(10):
        p = random_poset(rng, int(rng.integers(1, 5)))
        rep = random_nested_rep(rng, p, int(rng.integers(1, 4)))
        x = pr.rep_to_quiver(rep)
        back = pr.quiver_to_rep(x)
        for e in p.elements:
            a, b = rep.spans[e], back.spans[e]
            assert a.shape == b.shape
            assert np.linalg.norm(a @ a.conj().T - b @ b.conj().T) < 1e-10


def test_quiver_to_rep_rejects_non_injective():
    p = pr.primitive_poset(1)
    rep = pr.make_rep(p, 2, {"a1": np.array([[1.0], [0.0]], dtype=complex)})
    x = pr.rep_to_quiver(rep)
    broken = pr.QuiverRep(
        bound_quiver=x.bound_quiver,
        dims=x.dims,
        maps={k: np.zeros_like(v) for k, v in x.maps.items()},
    )
    with pytest.raises(pr.NotSubspaceRep):
        pr.quiver_to_rep(broken)


def test_quiver_to_rep_rejects_relation_violation():
    p = diamond()
    e = np.eye(3, dtype=complex)
    rep = pr.make_rep(
        p,
        3,
        {
            "a": e[:, :1],
            "b": e[:, :2],
            "c": e[:, [0, 2]],
            "d": e,
        },
    )
    x = pr.rep_to_quiver(rep)
    bad_maps = dict(x.maps)
    bad_maps[("a", "b")] = np.array([[0.0], [1.0]], dtype=complex)
    broken = pr.QuiverRep(bound_quiver=x.bound_quiver, dims=x.dims, maps=bad_maps)
    with pytest.raises(pr.RelationViolation):
        pr.quiver_to_rep(broken)


def test_cartan_solve_exact():
    p = diamond()
    cm = pr.cartan_matrix(pr.bound_quiver_of(p))
    rhs = tuple(Fraction(k + 1) for k in range(len(cm.order)))
    x = cartan_solve(cm, rhs)
    back = tuple(
        sum(Fraction(cm.entries[i][j]) * x[j] for j in range(len(x)))
        for i in range(len(x))
    )
    assert back == rhs
