from fractions import Fraction

import numpy as np
import pytest

import posetrep as pr
from posetrep.bound_quiver import commutativity_ideal
from posetrep.poset import Quiver
from conftest import (
    all_strict_orders,
    boolean_lattice,
    cartan_inverse,
    cartan_solve,
    grid_poset,
    oracle_cartan,
    oracle_commutativity_ideal,
    oracle_minimal_relation_counts,
    poset_from_pairs,
    random_nested_rep,
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


def test_relation_count_and_lazy_paths_match_enumeration_oracle():
    """The relation count from path counts, and the path basis and relations
    built on first access, equal the listing of every path, order included,
    on random posets with shuffled stored order, B3, B4, and the 3x3 and 3x4
    grids."""
    rng = np.random.default_rng(21)
    posets = [random_relabelled_poset(rng, int(rng.integers(0, 11))) for _ in range(200)]
    posets += [boolean_lattice(3), boolean_lattice(4), grid_poset(3, 3), grid_poset(3, 4)]
    for p in posets:
        bq = pr.bound_quiver_of(p)
        basis, relations = oracle_commutativity_ideal(bq.quiver)
        assert bq.relation_count == len(relations)
        assert bq.path_basis == basis
        assert bq.relations == relations
    b4 = pr.bound_quiver_of(boolean_lattice(4))
    assert (len(b4.path_basis), b4.relation_count) == (234, 762)


def _reach_by_two_or_more(q: Quiver) -> list[tuple[str, str]]:
    """Pairs (s, t), not arrows, joined by a path of at least two arrows."""
    arrows = set(q.arrows)
    return [
        (p[0], p[-1]) for p in q.all_paths()
        if len(p) > 2 and (p[0], p[-1]) not in arrows
    ]


def test_commutativity_ideal_names_the_shortcut_like_the_oracle():
    """NotHasseQuiver with the oracle's message, on the three-vertex
    shortcut and on covering quivers with one to three shortcut arrows
    added."""
    quivers = [Quiver(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))]
    rng = np.random.default_rng(22)
    while len(quivers) < 60:
        q = pr.hasse_quiver(random_relabelled_poset(rng, int(rng.integers(2, 9))))
        far = sorted(set(_reach_by_two_or_more(q)))
        if not far:
            continue
        picks = rng.choice(len(far), size=min(len(far), int(rng.integers(1, 4))),
                           replace=False)
        extra = tuple(far[i] for i in picks)
        quivers.append(Quiver(q.vertices, q.arrows + extra))
    for q in quivers:
        with pytest.raises(pr.NotHasseQuiver) as want:
            oracle_commutativity_ideal(q)
        with pytest.raises(pr.NotHasseQuiver) as got:
            commutativity_ideal(q)
        assert str(got.value) == str(want.value)


def _relations_hold(qrep, relations, tol: float = 1e-9) -> bool:
    """Every listed relation checked as a product along each path."""
    def path_map(path):
        m = np.eye(qrep.dims[path[0]], dtype=complex)
        for s, t in zip(path, path[1:]):
            m = qrep.maps[(s, t)] @ m
        return m

    for p1, p2 in relations:
        m1, m2 = path_map(p1), path_map(p2)
        if np.linalg.norm(m1 - m2) > tol * max(np.linalg.norm(m1), np.linalg.norm(m2), 1.0):
            return False
    return True


def test_quiver_to_rep_flags_violations_like_the_relation_list():
    """quiver_to_rep raises RelationViolation exactly when some relation of
    the listed ideal fails, after one arrow map of a nested representation
    is replaced by a random injective map."""
    rng = np.random.default_rng(23)
    outcomes = set()
    for _ in range(40):
        p = random_poset(rng, int(rng.integers(2, 7)), density=0.5)
        rep = random_nested_rep(rng, p, 3)
        x = pr.rep_to_quiver(rep)
        arrows = [a for a in x.bound_quiver.quiver.arrows if x.dims[a[0]]]
        if not arrows:
            continue
        s, t = arrows[int(rng.integers(len(arrows)))]
        maps = dict(x.maps)
        maps[(s, t)] = np.linalg.qr(
            rng.normal(size=(x.dims[t], x.dims[s]))
            + 1j * rng.normal(size=(x.dims[t], x.dims[s]))
        )[0]
        broken = pr.QuiverRep(x.bound_quiver, x.dims, maps)
        holds = _relations_hold(broken, oracle_commutativity_ideal(x.bound_quiver.quiver)[1])
        outcomes.add(holds)
        if holds:
            pr.quiver_to_rep(broken)
        else:
            with pytest.raises(pr.RelationViolation):
                pr.quiver_to_rep(broken)
    assert outcomes == {True, False}


def test_quiver_commands_never_list_paths(monkeypatch, tmp_path, capsys, rng):
    """hasse, euler, dim-quotient (plain and with the assignment search),
    rep_to_quiver and quiver_to_rep run without Quiver.all_paths."""
    from posetrep import fileio
    from posetrep.cli import main

    def forbidden(self):
        raise AssertionError("Quiver.all_paths called")

    monkeypatch.setattr(Quiver, "all_paths", forbidden)
    b4 = tmp_path / "b4.poset"
    b4.write_text(fileio.serialize_poset(boolean_lattice(4)))
    n4 = tmp_path / "n4.poset"
    n4.write_text(fileio.serialize_poset(pr.n4_poset()))
    dims = "2; " + ", ".join(["1"] * 16)
    for argv in (
        ["hasse", str(b4)],
        ["euler", str(b4), "-d", dims, "-e", dims],
        ["dim-quotient", str(b4), "-d", dims],
        ["dim-quotient", str(n4), "-d", "5; 2, 4, 3, 2; 1, 2, 3, 4",
         "--search-assignments"],
    ):
        for prefix in ([], ["--output", "json"]):
            assert main(prefix + argv) == 0, argv
    capsys.readouterr()
    rep = random_nested_rep(rng, grid_poset(2, 3), 3)
    back = pr.quiver_to_rep(pr.rep_to_quiver(rep))
    assert back.poset.pairs == rep.poset.pairs


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
