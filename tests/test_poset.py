import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetrep as pr
from conftest import (
    all_strict_orders,
    boolean_lattice,
    grid_poset,
    oracle_rep_finite,
    oracle_witnesses,
    poset_from_pairs,
    random_relabelled_poset,
    restrict,
    shuffled,
)


def test_build_poset_closure():
    p = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert ("a", "c") in p.pairs
    assert p.precedes("a", "c")
    assert not p.precedes("c", "a")


def test_build_poset_rejects_duplicates():
    with pytest.raises(pr.DuplicateElement):
        pr.build_poset(["a", "a"], [])


def test_build_poset_rejects_reserved_and_bad_names():
    with pytest.raises(pr.InvalidElement):
        pr.build_poset(["*"], [])
    with pytest.raises(pr.InvalidElement):
        pr.build_poset(["a b"], [])
    with pytest.raises(pr.InvalidElement):
        pr.build_poset([""], [])


def test_build_poset_rejects_cycles():
    with pytest.raises(pr.CycleError):
        pr.build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(pr.CycleError):
        pr.build_poset(["a"], [("a", "a")])


def test_build_poset_rejects_unknown_cover_endpoints():
    with pytest.raises(pr.InvalidElement):
        pr.build_poset(["a"], [("a", "z")])


def test_equality_ignores_element_order():
    p = pr.build_poset(["a", "b"], [("a", "b")])
    q = pr.build_poset(["b", "a"], [("a", "b")])
    assert p == q
    assert hash(p) == hash(q)
    assert p != pr.build_poset(["a", "b"], [])


def test_covers_drop_transitive_pairs():
    p = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(p.covers()) == {("a", "b"), ("b", "c")}


def test_linear_extension_is_consistent():
    p = pr.build_poset(["c", "a", "b"], [("a", "b"), ("b", "c")])
    order = p.linear_extension()
    pos = {e: i for i, e in enumerate(order)}
    assert all(pos[a] < pos[b] for a, b in p.pairs)


def test_restrict_full_subposet():
    p = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    q = restrict(p, ("a", "c"))
    assert q.elements == ("a", "c")
    assert ("a", "c") in q.pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_closure_is_transitive_and_irreflexive(n, raw):
    covers = [(f"x{a}", f"x{b}") for a, b in raw if a < b < n]
    p = pr.build_poset([f"x{i}" for i in range(n)], covers)
    for a, b in p.pairs:
        assert a != b
        for b2, c in p.pairs:
            if b2 == b:
                assert (a, c) in p.pairs or a == c


def test_hasse_quiver_points_at_root():
    p = pr.primitive_poset(2)
    q = pr.hasse_quiver(p)
    assert q.vertices == ("a1", "a2", pr.ROOT)
    assert set(q.arrows) == {("a1", "a2"), ("a2", pr.ROOT)}
    q.validate()


def test_hasse_quiver_empty_poset_single_vertex():
    p = pr.build_poset([], [])
    q = pr.hasse_quiver(p)
    assert q.vertices == (pr.ROOT,)
    assert q.arrows == ()


def test_hasse_reachability_matches_order():
    """Transitive closure of the covering quiver is the order extended by
    the top element."""
    for rel in all_strict_orders(3):
        p = poset_from_pairs(3, rel)
        q = pr.hasse_quiver(p)
        reach = {
            (a, b)
            for a in q.vertices
            for b in q.vertices
            if a != b and q.paths(a, b)
        }
        want = set(p.pairs) | {(e, pr.ROOT) for e in p.elements}
        assert reach == want


def test_quiver_topological_order_is_stable():
    p = pr.build_poset(["b", "a"], [])
    q = pr.hasse_quiver(p)
    assert q.topological_order() == ("b", "a", pr.ROOT)


def test_primitive_poset_shape():
    p = pr.primitive_poset(1, 2)
    assert p.elements == ("a1", "a2", "a3")
    assert p.pairs == frozenset({("a2", "a3")})
    assert len(pr.primitive_poset()) == 0
    with pytest.raises(ValueError):
        pr.primitive_poset(0)


def test_is_primitive():
    assert pr.is_primitive(pr.primitive_poset(2, 3)).primitive
    res = pr.is_primitive(pr.n_poset())
    assert not res.primitive
    assert pr.is_primitive(pr.build_poset([], [])).primitive


def test_n_poset_is_the_zigzag():
    p = pr.n_poset()
    assert set(p.covers()) == {("n1", "n2"), ("n3", "n2"), ("n3", "n4")}


def test_n4_poset_components():
    p = pr.n4_poset()
    assert len(p) == 8
    assert ("c1", "c4") in p.pairs
    assert not p.comparable("n1", "c1")


def test_order_isomorphic():
    p = pr.build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    q = pr.build_poset(["x", "y", "z"], [("z", "x"), ("y", "x")])
    assert pr.order_isomorphic(p, q)
    r = pr.build_poset(["x", "y", "z"], [("x", "y")])
    assert not pr.order_isomorphic(p, r)
    assert not pr.order_isomorphic(p, pr.primitive_poset(1, 1))


def test_critical_posets_well_formed():
    names = [name for name, _ in pr.CRITICAL_POSETS]
    assert names == ["(1,1,1,1)", "(2,2,2)", "(1,3,3)", "(1,2,5)", "(N,4)"]
    sizes = [len(crit) for _, crit in pr.CRITICAL_POSETS]
    assert sizes == [4, 6, 7, 8, 8]


def test_representation_finite_spot_values():
    assert pr.is_representation_finite(pr.primitive_poset(1, 2)).finite
    res = pr.is_representation_finite(pr.primitive_poset(1, 1, 1, 1))
    assert not res.finite
    assert res.witnesses[0][0] == "(1,1,1,1)"
    assert pr.is_representation_finite(pr.primitive_poset(5)).finite
    assert not pr.is_representation_finite(pr.n4_poset()).finite


def test_representation_finite_witnesses_are_real_subposets():
    res = pr.is_representation_finite(pr.primitive_poset(2, 2, 2))
    assert not res.finite
    for name, subset in res.witnesses:
        crit = dict(pr.CRITICAL_POSETS)[name]
        assert pr.order_isomorphic(
            restrict(pr.primitive_poset(2, 2, 2), subset), crit
        )


def _with_extras(rng: np.random.Generator, crit: pr.Poset, extra: int) -> pr.Poset:
    """crit with ``extra`` more elements, shuffled, keeping crit a full
    subposet: each new element lies only below or only above elements of
    crit, and no upper one lies below a lower one."""
    lower = [f"z{k}" for k in range(extra) if rng.random() < 0.5]
    upper = [f"z{k}" for k in range(extra) if f"z{k}" not in lower]
    covers = list(crit.pairs)
    for z in lower + upper:
        for e in crit.elements:
            if rng.random() < 0.3:
                covers.append((z, e) if z in lower else (e, z))
    new = lower + upper
    covers += [(a, b) for i, a in enumerate(new) for b in new[i + 1:]
               if rng.random() < 0.3]
    return shuffled(rng, pr.build_poset(list(crit.elements) + new, covers))


def test_witness_list_matches_subset_oracle():
    """The embedding search returns exactly the subsets that a search over
    all combinations finds, in the same order.  Besides small random posets
    the cases include posets where the placement order (largest component
    first) is not a linear extension of the critical poset: (1,2,5) and
    (N,4) among extra elements, and several equal chains."""
    rng = np.random.default_rng(8)
    crit = dict(pr.CRITICAL_POSETS)
    posets = [random_relabelled_poset(rng, int(rng.integers(4, 9))) for _ in range(40)]
    posets += [random_relabelled_poset(rng, int(rng.integers(9, 12))) for _ in range(20)]
    posets += [boolean_lattice(4), grid_poset(3, 4)]
    posets += [
        shuffled(rng, q)
        for q in (pr.primitive_poset(2, 2, 2, 1), pr.primitive_poset(2, 3, 3),
                  pr.primitive_poset(1, 2, 5), pr.primitive_poset(1, 2, 6),
                  pr.n4_poset(), pr.primitive_poset(2, 2, 2, 2),
                  pr.primitive_poset(3, 3, 1, 1))
    ]
    for name in ("(1,2,5)", "(N,4)"):
        for extra in (1, 2, 3, 4):
            p = _with_extras(rng, crit[name], extra)
            assert name in {found for found, _ in oracle_witnesses(p)}
            posets.append(p)
    infinite, names = 0, set()
    for p in posets:
        got = pr.is_representation_finite(p)
        want = oracle_witnesses(p)
        assert got.witnesses == want
        assert got.finite == (not want)
        infinite += not got.finite
        names |= {name for name, _ in want}
    assert 0 < infinite < len(posets)
    assert names == {name for name, _ in pr.CRITICAL_POSETS}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))) if n else st.just(set()),
)))
def test_witness_list_matches_oracle_property(case):
    """On any poset of at most 8 elements, in any stored order, the
    witnesses are those of the subset oracle."""
    order, raw = case
    names = [f"x{i}" for i in order]
    p = pr.build_poset(names, [(f"x{a}", f"x{b}") for a, b in raw if a < b])
    assert pr.is_representation_finite(p).witnesses == oracle_witnesses(p)


def test_representation_finite_agrees_with_oracle_small():
    for n in range(4):
        for rel in all_strict_orders(n):
            p = poset_from_pairs(n, rel)
            assert pr.is_representation_finite(p).finite == oracle_rep_finite(p)
