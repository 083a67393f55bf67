import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posetrep as pr
from posetrep import fileio
from posetrep.linalg import random_subspace
from conftest import (
    oracle_format_complex,
    oracle_format_matrix,
    oracle_parse_rows,
    random_nested_rep,
    random_poset,
)


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
# the bulk complex codec against the per-entry oracles

#: signed zeros, NaNs of both signs, infinities, subnormals, the edges of
#: repr's switch to exponent notation and a value with a short repr
SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                  -5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1e16, 0.1, 1.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


def read_back(a: np.ndarray) -> np.ndarray:
    """What the text of ``a`` reads as: the real part bit for bit, the sign
    of zero included; the imaginary part too, except that -0.0 is written
    ``+0.0j``; and every NaN as the NaN that ``nan`` parses to."""
    re, im = a.real.copy(), a.imag.copy()
    re[np.isnan(re)] = np.nan
    im[np.isnan(im)] = np.nan
    im[im == 0] = 0.0
    out = np.empty_like(a)
    out.real, out.imag = re, im
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(FLOATS, FLOATS), max_size=40), st.integers(0, 3))
def test_format_complexes_matches_per_entry(pairs, repeats):
    """Sizes on both sides of the distinct-float threshold, with conjugate
    pairs and repeated entries; the text reads back bit for bit."""
    z = np.array([complex(x, y) for x, y in pairs], dtype=complex)
    a = np.concatenate([z, z.conj()] + [z] * repeats)
    texts = fileio.format_complexes(a)
    assert texts == [fileio.format_complex(v) for v in a]
    assert texts == [oracle_format_complex(v) for v in a.tolist()]
    assert fileio.format_complexes(a.reshape(-1, 1)) == texts
    got, _ = fileio._parse_rows(list(enumerate(texts, start=1)), 0, a.size, 1)
    assert np.array_equal(got.ravel().view(np.int64), read_back(a).view(np.int64))


ROW_TOKENS = st.sampled_from(["1.0+0.0j", "-0.0+2.5j", "nan+infj", " 3e-05-1.0j",
                              "1 + 2j", "( 1+2j )", "2", "", "x", "1.0+0.0j 2.0"])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3),
       st.lists(st.lists(ROW_TOKENS, min_size=1, max_size=4), max_size=4))
def test_parse_rows_matches_row_by_row_oracle(nrows, ncols, rows):
    """The same matrix, or the same error at the same line, as reading the
    block token by token: bad tokens, wrong entry counts, a block cut short
    and inner spaces."""
    lines = [(3 * i + 5, ", ".join(row).strip() or "?") for i, row in enumerate(rows)]

    def outcome(parse):
        try:
            m, idx = parse(lines, 0, nrows, ncols)
        except pr.ParseError as exc:
            return str(exc)
        return m.shape, m.view(np.int64).tobytes(), idx

    assert outcome(fileio._parse_rows) == outcome(oracle_parse_rows)


def oracle_rep_text(rep, poset_path: str) -> str:
    lines = [f"poset {poset_path}", f"ambient {rep.ambient_dim}"]
    for e in rep.poset.elements:
        q = rep.spans[e]
        lines.append(f"span {e} cols {q.shape[1]}")
        if q.shape[1]:
            lines += oracle_format_matrix(q)
    return "\n".join(lines) + "\n"


def oracle_projection_text(ps, poset_path: str) -> str:
    lines = [f"poset {poset_path}", f"ambient {ps.ambient_dim}",
             f"weight {fileio.serialize_weight(ps.weight, ps.poset)}"]
    for e in ps.poset.elements:
        lines.append(f"projection {e} rank {ps.ranks[e]}")
        lines += oracle_format_matrix(ps.projections[e])
    return "\n".join(lines) + "\n"


def oracle_blocks(text: str, square: bool) -> list[np.ndarray]:
    """Every matrix block of a file this package wrote, read by the oracle."""
    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    d0 = int(lines[1][1].split()[1])
    blocks = []
    for idx, (_, line) in enumerate(lines):
        parts = line.split()
        if parts[0] in ("span", "projection"):
            ncols = d0 if square else int(parts[3])
            blocks.append(oracle_parse_rows(lines, idx + 1, d0, ncols)[0] if ncols
                          else np.zeros((d0, 0), dtype=complex))
    return blocks


def seeded_reps_and_systems(rng):
    """Reps and projection systems on five incomparable elements, with
    zero-width spans (rank-0 projections) among them, at d0 = 0, 1, 2, 16."""
    p = pr.primitive_poset(*[1] * 5)
    for d0 in (0, 1, 2, 16):
        ranks = {e: int(rng.integers(0, d0 + 1)) for e in p.elements}
        ranks[p.elements[0]] = 0
        spans = {e: random_subspace(rng, d0, k) for e, k in ranks.items()}
        rep = pr.make_rep(p, d0, spans)
        projs = {e: q @ q.conj().T for e, q in spans.items()}
        weight = pr.Weight(Fraction(5, 2), {e: Fraction(1, 2) for e in p.elements})
        yield rep, pr.ProjectionSystem(p, weight, projs, ranks)


def test_serializers_match_per_entry_oracle(tmp_path, rng):
    write(tmp_path, "p.poset", fileio.serialize_poset(pr.primitive_poset(*[1] * 5)))
    for rep, ps in seeded_reps_and_systems(rng):
        text = fileio.serialize_rep(rep, "p.poset")
        assert text == oracle_rep_text(rep, "p.poset")
        loaded, _ = fileio.parse_rep(text, base_dir=str(tmp_path))
        for e, block in zip(rep.poset.elements, oracle_blocks(text, square=False)):
            assert loaded.spans[e].tobytes() == block.tobytes() == rep.spans[e].tobytes()
        text = fileio.serialize_projection_system(ps, "p.poset")
        assert text == oracle_projection_text(ps, "p.poset")
        loaded, _ = fileio.parse_projection_system(text, base_dir=str(tmp_path))
        for e, block in zip(ps.poset.elements, oracle_blocks(text, square=True)):
            assert loaded.projections[e].tobytes() == block.tobytes()
            assert block.tobytes() == ps.projections[e].tobytes()
    # a poset without elements: no blocks, so no entries to write
    empty = pr.build_poset([], [])
    rep = pr.make_rep(empty, 2, {})
    assert fileio.serialize_rep(rep, "e.poset") == oracle_rep_text(rep, "e.poset")
    ps = pr.ProjectionSystem(empty, pr.Weight(Fraction(1), {}), {}, {})
    assert fileio.serialize_projection_system(ps, "e.poset") == oracle_projection_text(ps, "e.poset")


@pytest.mark.parametrize("d0", [1, 2, 16, None])
def test_report_json_matches_per_entry_oracle(d0):
    rng = np.random.default_rng(d0)
    metric = None if d0 is None else rng.standard_normal((d0, d0)) + 1j * rng.standard_normal((d0, d0))
    report = pr.FlowReport(status="converged", iterations=3, attempts=4, hvp=5, residual=1e-9,
                           gradient_norm=2e-9, step=1.0, condition=1.5, history=[0.5, 1e-9],
                           steps=[1.0, 1.0], trials=[1, 1], final_metric=metric)
    payload = report.as_dict()
    payload["final_metric"] = None if d0 is None else [
        [oracle_format_complex(z) for z in row] for row in metric.tolist()
    ]
    assert fileio.report_to_json(report) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def block_file(kind: str, rows: list[str]) -> str:
    """A .rep or .proj text on {a1, a2} in C^3 whose first block is
    ``rows`` (three rows of two entries for a span, of three for a
    projection); the rows start on line 6, behind a comment and a blank."""
    if kind == "rep":
        head = "poset p.poset\nambient 3\n# spans\n\nspan a1 cols 2\n"
        tail = "span a2 cols 0\n"
    else:
        head = "poset p.poset\nambient 3\nweight 1; 1, 1\n\nprojection a1 rank 1\n"
        tail = "projection a2 rank 0\n" + "0.0+0.0j, 0.0+0.0j, 0.0+0.0j\n" * 3
    return head + "\n".join(rows) + "\n" + tail


def parse_block_file(kind: str, text: str, base_dir: str) -> np.ndarray:
    if kind == "rep":
        return fileio.parse_rep(text, base_dir=base_dir)[0].spans["a1"]
    return fileio.parse_projection_system(text, base_dir=base_dir)[0].projections["a1"]


@pytest.mark.parametrize("kind", ["rep", "proj"])
def test_block_parse_errors_name_their_row(tmp_path, kind):
    """A bad token in the k-th row of a block is reported at that row's
    line, and so is a row with the wrong entry count; entries with inner
    spaces still parse, to the same matrix as without them."""
    write(tmp_path, "p.poset", "elem a1\nelem a2\n")
    ncols = 2 if kind == "rep" else 3
    rows = [", ".join("1.0+0.0j" if j == i else "0.0+0.0j" for j in range(ncols))
            for i in range(3)]
    base = parse_block_file(kind, block_file(kind, rows), str(tmp_path))
    for k in range(3):
        bad = list(rows)
        bad[k] = rows[k].rpartition(", ")[0] + ", 0.0+zj"
        with pytest.raises(pr.ParseError, match=rf"^line {6 + k}: bad complex number ' 0.0\+zj'$"):
            parse_block_file(kind, block_file(kind, bad), str(tmp_path))
        for extra in (-1, 1):
            bad = list(rows)
            bad[k] = ", ".join(["0.0+0.0j"] * (ncols + extra))
            with pytest.raises(pr.ParseError,
                               match=rf"^line {6 + k}: expected {ncols} entries, got {ncols + extra}$"):
                parse_block_file(kind, block_file(kind, bad), str(tmp_path))
        spaced = list(rows)
        spaced[k] = spaced[k].replace("+", " + ")
        got = parse_block_file(kind, block_file(kind, spaced), str(tmp_path))
        assert got.tobytes() == base.tobytes()
    # one row too many entries and the next one too few: each row is counted
    bad = list(rows)
    bad[0] += ", 1.0+0.0j"
    bad[1] = ", ".join(["0.0+0.0j"] * (ncols - 1))
    with pytest.raises(pr.ParseError, match=rf"^line 6: expected {ncols} entries, got {ncols + 1}$"):
        parse_block_file(kind, block_file(kind, bad), str(tmp_path))


@pytest.mark.parametrize("kind", ["rep", "proj"])
def test_non_finite_entries_are_refused_at_their_row(tmp_path, kind):
    """A NaN or infinite entry in the k-th row of a block is a ParseError
    at that row's line, whether the block parses in one call or, with
    inner spaces, row by row."""
    write(tmp_path, "p.poset", "elem a1\nelem a2\n")
    ncols = 2 if kind == "rep" else 3
    rows = [", ".join("1.0+0.0j" if j == i else "0.0+0.0j" for j in range(ncols))
            for i in range(3)]
    for k in range(3):
        for token in ("nan+0.0j", "0.0-infj", "inf", "-inf + 0j", "nan + nanj"):
            bad = list(rows)
            bad[k] = rows[k].rpartition(", ")[0] + ", " + token
            with pytest.raises(pr.ParseError, match=rf"^line {6 + k}: matrix entries must be finite$"):
                parse_block_file(kind, block_file(kind, bad), str(tmp_path))


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
    # a poset without elements: the system's ambient dimension is 0
    write(tmp_path, "e.poset", "")
    empty = "poset e.poset\nambient {}\nweight 1;\n"
    ps, _ = fileio.parse_projection_system(empty.format(0), base_dir=str(tmp_path))
    assert ps.ambient_dim == 0 and "\nambient 0\n" in fileio.serialize_projection_system(ps, "e")
    with pytest.raises(pr.ParseError, match="ambient 2 with a poset of no elements"):
        fileio.parse_projection_system(empty.format(2), base_dir=str(tmp_path))


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


# ---------------------------------------------------------------------------
# the output writer

#: a longer old file than anything written below, with a line that no
#: serializer writes, so a surviving tail shows
JUNK = "# stale\n" + "x" * 200_000 + "\n"


def test_overwrite_leaves_exactly_the_new_text(tmp_path):
    path = write(tmp_path, "out.txt", JUNK)
    with fileio.overwrite(path) as fh:
        fh.write("short\n")
    assert (tmp_path / "out.txt").read_bytes() == b"short\n"
    with fileio.overwrite(path) as fh:
        fh.write("")
    assert (tmp_path / "out.txt").read_bytes() == b""


def test_overwrite_creates_a_missing_file(tmp_path):
    path = tmp_path / "new.txt"
    with fileio.overwrite(str(path)) as fh:
        fh.write("é\n")
    assert path.read_bytes() == "é\n".encode("utf-8")


def test_overwrite_newline_as_open(tmp_path):
    """newline is passed through as to ``open``: '' writes the text as it
    is, None translates '\\n' to os.linesep (the same on POSIX)."""
    for newline in (None, "", "\r\n"):
        expected = tmp_path / "open.txt"
        with open(expected, "w", encoding="utf-8", newline=newline) as fh:
            fh.write("a\nb\r\n")
        path = write(tmp_path, "in_place.txt", JUNK)
        with fileio.overwrite(path, newline=newline) as fh:
            fh.write("a\nb\r\n")
        assert (tmp_path / "in_place.txt").read_bytes() == expected.read_bytes()


def test_overwrite_never_truncates_on_open(tmp_path, monkeypatch):
    flags = []
    os_open = os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return os_open(path, flag, *args)

    monkeypatch.setattr(os, "open", spy)
    path = write(tmp_path, "out.txt", JUNK)
    fileio.save_poset(pr.primitive_poset(1, 2), path)
    assert flags == [os.O_WRONLY | os.O_CREAT]


def test_overwrite_cuts_the_old_tail_when_the_write_fails(tmp_path):
    path = write(tmp_path, "out.txt", JUNK)
    with pytest.raises(RuntimeError, match="half way"):
        with fileio.overwrite(path) as fh:
            fh.write("written\n")
            raise RuntimeError("half way")
    assert (tmp_path / "out.txt").read_bytes() == b"written\n"


def test_save_functions_overwrite_a_longer_file(tmp_path):
    write(tmp_path, "anti.poset", fileio.serialize_poset(pr.FOUR_ANTICHAIN))
    poset, rep = pr.primitive_poset(1, 2), pr.four_lines_rep(2)
    system, _ = pr.kempf_ness_flow(rep, pr.FOURSPACE_WEIGHT)
    path = write(tmp_path, "out", JUNK)
    fileio.save_poset(poset, path)
    assert (tmp_path / "out").read_text() == fileio.serialize_poset(poset)
    path = write(tmp_path, "out", JUNK)
    fileio.save_rep(rep, path, "anti.poset")
    assert (tmp_path / "out").read_text() == fileio.serialize_rep(rep, "anti.poset")
    path = write(tmp_path, "out", JUNK)
    fileio.save_projection_system(system, path, "anti.poset")
    assert (tmp_path / "out").read_text() == fileio.serialize_projection_system(system, "anti.poset")
