from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posetrep as pr
from posetrep import fileio
from conftest import random_nested_rep, random_poset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# scalars

def test_format_complex_round_trip():
    for z in (0, 1, -1, 2.5 - 3.25j, 1e-17 + 1j, complex(-0.0, -0.0), 3 + 4j):
        s = fileio.format_complex(z)
        assert fileio.parse_complex(s) == complex(z)


def test_parse_complex_reports_line():
    with pytest.raises(pr.ParseError, match="line 7"):
        fileio.parse_complex("nope", line=7)


# ---------------------------------------------------------------------------
# posets

def test_poset_round_trip_with_comments():
    text = "# four incomparable points\nelem a  # first\n\nelem b\nelem c\nelem d\ncover a < b\n"
    p = fileio.parse_poset(text)
    assert p.elements == ("a", "b", "c", "d")
    assert p.covers() == (("a", "b"),)
    again = fileio.parse_poset(fileio.serialize_poset(p))
    assert again == p


def test_poset_serialization_byte_stable():
    p = pr.n4_poset()
    s = fileio.serialize_poset(p)
    assert fileio.serialize_poset(fileio.parse_poset(s)) == s


def test_poset_parse_errors_carry_line_numbers():
    with pytest.raises(pr.ParseError, match="line 2"):
        fileio.parse_poset("elem a\nkover a < b\n")
    with pytest.raises(pr.ParseError, match="line 1"):
        fileio.parse_poset("cover a <\n")
    with pytest.raises(pr.ParseError, match="line 3"):
        fileio.parse_poset("elem a\nelem b\nelem x y\n")


def test_poset_parse_rejects_semantic_errors():
    with pytest.raises(pr.DuplicateElement):
        fileio.parse_poset("elem a\nelem a\n")
    with pytest.raises(pr.CycleError):
        fileio.parse_poset("elem a\nelem b\ncover a < b\ncover b < a\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_poset_round_trip_random(n, seed):
    p = random_poset(np.random.default_rng(seed), n)
    assert fileio.parse_poset(fileio.serialize_poset(p)) == p


def test_load_save_poset(tmp_path):
    path = str(tmp_path / "p.poset")
    fileio.save_poset(pr.primitive_poset(1, 2), path)
    assert fileio.load_poset(path) == pr.primitive_poset(1, 2)


# ---------------------------------------------------------------------------
# dimension vectors and weights

def test_parse_dim_vector_groups_and_errors():
    d = fileio.parse_dim_vector("5; 2, 4; 3, 2")
    assert d.entries == (5, 2, 4, 3, 2)
    assert fileio.parse_dim_vector(fileio.serialize_dim_vector(d)).entries == d.entries
    root, groups = fileio.parse_dim_groups("5; 2, 4; 3, 2")
    assert root == 5 and groups == ((2, 4), (3, 2))
    with pytest.raises(pr.ParseError):
        fileio.parse_dim_vector("x; 1")
    with pytest.raises(pr.ParseError):
        fileio.parse_dim_vector("2; 1, q")
    with pytest.raises(pr.ParseError):
        fileio.parse_dim_groups("3")


def test_parse_dim_vector_validates_against_poset():
    p = pr.primitive_poset(1, 1)
    assert fileio.parse_dim_vector("2; 1, 1", p).entries == (2, 1, 1)
    with pytest.raises(pr.WrongShape):
        fileio.parse_dim_vector("2; 1", p)


def test_weight_round_trip_and_errors():
    p = pr.primitive_poset(1, 1, 1, 1)
    w = fileio.parse_weight("2; 1, 1, 1, 1", p)
    assert w.chi0 == Fraction(2)
    assert fileio.serialize_weight(w, p) == "2; 1, 1, 1, 1"
    half = fileio.parse_weight("3/2; 1/2, 1/2, 1/2, 3/2", p)
    assert half.chi["a4"] == Fraction(3, 2)
    with pytest.raises(pr.ParseError):
        fileio.parse_weight("2", p)
    with pytest.raises(pr.ParseError):
        fileio.parse_weight("2; 1, 1", p)
    with pytest.raises(pr.ParseError):
        fileio.parse_weight("2; 1, 1, 1, bad", p)


# ---------------------------------------------------------------------------
# representations

def test_rep_round_trip_byte_stable(tmp_path):
    poset_path = write(tmp_path, "anti.poset", fileio.serialize_poset(pr.primitive_poset(1, 1, 1, 1)))
    rep = pr.four_lines_rep(2.5 - 1j)
    rep_path = str(tmp_path / "r.rep")
    fileio.save_rep(rep, rep_path, "anti.poset")
    text = (tmp_path / "r.rep").read_text()
    loaded, used = fileio.load_rep(rep_path)
    assert used == "anti.poset"
    assert fileio.serialize_rep(loaded, used) == text
    for e in rep.poset.elements:
        assert np.array_equal(loaded.spans[e], rep.spans[e])
    assert fileio.load_poset(poset_path) == rep.poset


def test_rep_parse_orthonormalizes_raw_spans(tmp_path):
    write(tmp_path, "p.poset", "elem a1\nelem a2\n")
    text = (
        "poset p.poset\n"
        "ambient 2\n"
        "span a1 cols 1\n"
        "3.0+0.0j\n"
        "0.0+0.0j\n"
        "span a2 cols 1\n"
        "1.0+0.0j\n"
        "1.0+0.0j\n"
    )
    rep, _ = fileio.parse_rep(text, base_dir=str(tmp_path))
    for e in ("a1", "a2"):
        q = rep.spans[e]
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert abs(abs(rep.spans["a2"][0, 0]) - 1 / np.sqrt(2)) < 1e-12


def test_rep_parse_keeps_orthonormal_spans_verbatim(tmp_path):
    write(tmp_path, "p.poset", "elem a1\n")
    text = "poset p.poset\nambient 2\nspan a1 cols 1\n0.0+1.0j\n0.0+0.0j\n"
    rep, _ = fileio.parse_rep(text, base_dir=str(tmp_path))
    # Orthonormal input is preserved exactly, including its phase.
    assert rep.spans["a1"][0, 0] == 1j


def test_rep_parse_allows_missing_blocks_as_zero(tmp_path):
    write(tmp_path, "p.poset", "elem a1\nelem a2\n")
    text = "poset p.poset\nambient 3\nspan a1 cols 1\n1.0+0.0j\n0.0+0.0j\n0.0+0.0j\n"
    rep, _ = fileio.parse_rep(text, base_dir=str(tmp_path))
    assert rep.dim("a1") == 1
    assert rep.dim("a2") == 0
    assert rep.spans["a2"].shape == (3, 0)


def test_rep_parse_errors(tmp_path):
    write(tmp_path, "p.poset", "elem a1\n")
    good = "poset p.poset\nambient 2\nspan a1 cols 1\n1.0+0.0j\n0.0+0.0j\n"
    with pytest.raises(pr.ParseError, match="start with 'poset"):
        fileio.parse_rep("ambient 2\n", base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="ambient"):
        fileio.parse_rep("poset p.poset\nspan a1 cols 1\n", base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="unexpected end"):
        fileio.parse_rep(good.replace("\n0.0+0.0j\n", "\n"), base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="duplicate span"):
        fileio.parse_rep(good + "span a1 cols 0\n", base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="unknown elements"):
        fileio.parse_rep(good.replace("span a1", "span zz"), base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="expected 1 entries, got 2"):
        fileio.parse_rep(good.replace("1.0+0.0j", "1.0+0.0j, 2.0+0.0j"), base_dir=str(tmp_path))
    with pytest.raises(OSError):
        fileio.parse_rep("poset missing.poset\nambient 2\n", base_dir=str(tmp_path))


def test_rep_round_trip_random(tmp_path, rng):
    zigzag = pr.build_poset(["n1", "n2", "n3", "n4"], [("n1", "n2"), ("n3", "n2"), ("n3", "n4")])
    write(tmp_path, "p.poset", fileio.serialize_poset(zigzag))
    for _ in range(5):
        rep = random_nested_rep(rng, zigzag, 3)
        text = fileio.serialize_rep(rep, "p.poset")
        loaded, _ = fileio.parse_rep(text, base_dir=str(tmp_path))
        for e in rep.poset.elements:
            assert np.allclose(loaded.spans[e], rep.spans[e])
        assert fileio.serialize_rep(loaded, "p.poset") == text


# ---------------------------------------------------------------------------
# projection systems

def test_projection_system_round_trip(tmp_path):
    write(tmp_path, "anti.poset", fileio.serialize_poset(pr.FOUR_ANTICHAIN))
    system, _ = pr.kempf_ness_flow(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    path = str(tmp_path / "s.proj")
    fileio.save_projection_system(system, path, "anti.poset")
    loaded, used = fileio.load_projection_system(path)
    assert used == "anti.poset"
    assert loaded.ranks == system.ranks
    assert loaded.weight.chi0 == system.weight.chi0
    for e in system.poset.elements:
        assert np.array_equal(loaded.projections[e], system.projections[e])
    text = (tmp_path / "s.proj").read_text()
    assert fileio.serialize_projection_system(loaded, used) == text


def test_projection_system_parse_errors(tmp_path):
    write(tmp_path, "p.poset", "elem a1\nelem a2\n")
    head = "poset p.poset\nambient 1\nweight 1; 1/2, 1/2\n"
    block = "projection a1 rank 1\n1.0+0.0j\nprojection a2 rank 0\n0.0+0.0j\n"
    fileio.parse_projection_system(head + block, base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="weight"):
        fileio.parse_projection_system("poset p.poset\nambient 1\n" + block, base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="missing projection"):
        fileio.parse_projection_system(head + "projection a1 rank 1\n1.0+0.0j\n", base_dir=str(tmp_path))
    with pytest.raises(pr.ParseError, match="unknown element"):
        fileio.parse_projection_system(
            head + block.replace("projection a2", "projection b9"), base_dir=str(tmp_path)
        )
    with pytest.raises(pr.ParseError, match="bad rank"):
        fileio.parse_projection_system(
            head + block.replace("rank 1", "rank one"), base_dir=str(tmp_path)
        )
    with pytest.raises(pr.ParseError, match="line 6.*duplicate projection"):
        fileio.parse_projection_system(
            head + block.replace("projection a2", "projection a1"), base_dir=str(tmp_path)
        )
    for rank in ("-1", "2"):
        with pytest.raises(pr.ParseError, match="line 4.*bad rank"):
            fileio.parse_projection_system(
                head + block.replace("rank 1", "rank " + rank), base_dir=str(tmp_path)
            )


def test_rep_poset_path_resolution(tmp_path):
    sub = tmp_path / "inner"
    sub.mkdir()
    write(tmp_path, "inner/p.poset", "elem a1\n")
    rep_path = write(
        tmp_path, "inner/r.rep", "poset p.poset\nambient 1\nspan a1 cols 1\n1.0+0.0j\n"
    )
    rep, used = fileio.load_rep(rep_path)
    assert used == "p.poset"
    assert rep.ambient_dim == 1


def test_report_json_shape():
    import json

    _, report = pr.kempf_ness_flow(pr.four_lines_rep(2), pr.FOURSPACE_WEIGHT)
    text = fileio.report_to_json(report)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["status"] == "converged"
    assert isinstance(payload["history"], list)
