import argparse
import cmath
import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import posetrep as pr
from posetrep import cli, fileio
from posetrep.cli import build_parser, main
from posetrep.linalg import random_subspace
from conftest import (
    oracle_format_complex,
    oracle_lattice_verdict,
    oracle_sweep_summands,
    planted_line_rep,
    random_antichain_rep,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save(name, text):
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
        return paths[name]

    save("anti4.poset", fileio.serialize_poset(pr.FOUR_ANTICHAIN))
    save("p12.poset", fileio.serialize_poset(pr.primitive_poset(1, 2)))
    save("n4.poset", fileio.serialize_poset(pr.n4_poset()))
    save("empty.poset", "# nothing here\n")
    save("lam2.rep", fileio.serialize_rep(pr.four_lines_rep(2), "anti4.poset"))
    save("p11.poset", "elem a1\nelem a2\n")
    save(
        "same.rep",
        "poset p11.poset\nambient 2\n"
        "span a1 cols 1\n1.0+0.0j\n0.0+0.0j\n"
        "span a2 cols 1\n1.0+0.0j\n0.0+0.0j\n",
    )
    save("broken.rep", "ambient 2\nspan a1 cols 1\n")
    paths["dir"] = str(tmp_path)
    return paths


# ---------------------------------------------------------------------------
# combinatorial commands

def test_hasse_empty_poset(capsys, files):
    code, out, _ = run(capsys, "hasse", files["empty.poset"])
    assert code == 0
    assert "vertices: *" in out
    assert "relations: 0" in out


def test_hasse_reports_relations(capsys, files):
    code, out, _ = run(capsys, "hasse", files["n4.poset"])
    assert code == 0
    assert "n1 -> n2" in out
    lines = dict(
        line.split(": ") for line in out.splitlines() if ": " in line
    )
    assert int(lines["relations"]) >= 1


def test_kleiner_finite(capsys, files):
    code, out, _ = run(capsys, "kleiner", files["p12.poset"])
    assert code == 0
    assert out.splitlines()[0] == "representation-finite: yes"
    assert "contains" not in out


def test_kleiner_infinite_names_witness(capsys, files):
    code, out, _ = run(capsys, "kleiner", files["anti4.poset"])
    assert code == 0
    assert out.splitlines()[0] == "representation-finite: no"
    assert "contains (1,1,1,1) on a1, a2, a3, a4" in out


def test_euler_value(capsys, files):
    code, out, _ = run(capsys, "euler", files["p11.poset"], "-d", "2; 1, 1")
    assert code == 0
    assert out.strip() == "2"


def test_euler_two_vectors(capsys, files):
    # <d, e> = sum_q d_q e_q - sum_{arrows s->t} d_s e_t with e supported
    # on the top vertex only: 2*1 - 1*1 - 1*1.
    code, out, _ = run(
        capsys, "euler", files["p11.poset"], "-d", "2; 1, 1", "-e", "1; 0, 0"
    )
    assert code == 0
    assert out.strip() == "0"


def test_dim_quotient_tame_value(capsys, files):
    code, out, _ = run(capsys, "dim-quotient", files["anti4.poset"], "-d", "2; 1, 1, 1, 1")
    assert code == 0
    assert out.strip() == "1"


def test_dim_quotient_search_reports_discrepancy(capsys, files):
    code, out, _ = run(
        capsys,
        "dim-quotient",
        files["n4.poset"],
        "-d",
        "5; 2, 4, 3, 2; 1, 2, 3, 4",
        "--search-assignments",
        "--expect",
        "1",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("assignment ")]
    assert len(rows) == 3
    assert any("n1=2 n2=4 n3=2 n4=3" in r and r.endswith("-> 0") for r in rows)
    assert "matched: no" in out
    assert "DISCREPANCY" in out
    assert "[-3, -2, 0]" in out


def test_dim_quotient_search_json(capsys, files):
    code, out, _ = run(
        capsys,
        "--output",
        "json",
        "dim-quotient",
        files["n4.poset"],
        "-d",
        "5; 2, 4, 3, 2; 1, 2, 3, 4",
        "--search-assignments",
        "--expect",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] is False
    assert payload["values_seen"] == [-3, -2, 0]
    assert {a["value"] for a in payload["assignments"]} == {-3, -2, 0}


# ---------------------------------------------------------------------------
# stability and solve

def test_stability_stable_line(capsys, files):
    code, out, _ = run(
        capsys, "stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1"
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["classification"] == "stable"
    assert lines["trace_identity"] == "yes"
    assert lines["inconclusive"] == "no"
    assert lines["methods"] == "flow"
    assert lines["route"] == "flow_stable"


def test_stability_json_round_trip(capsys, files):
    code, out, _ = run(
        capsys,
        "stability",
        files["lam2.rep"],
        "-w",
        "2; 1, 1, 1, 1",
        "--output",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "stable"
    assert payload["witness"] is None


#: the diagnostics keys of every stability verdict under --output json
STABILITY_KEYS = {"route", "flow_status", "flow_iterations", "flow_trials", "residual",
                  "lambda_min", "end_dim", "dual_bound", "gap", "hn_dims", "hn_slopes",
                  "inconclusive_reasons", "times_ms"}


def test_stability_json_diagnostics(capsys, files):
    """The flow's certificate on the flow route; on an uncertified verdict
    (here for two lines 3e-9 apart, where dim End hangs on the tolerance)
    the reason, as a string, and the inconclusive flag.  methods is the
    flow alone either way.  Every verdict has the same keys; wall times are
    floats and are not compared."""
    code, out, _ = run(capsys, "--output", "json", "stability", files["lam2.rep"],
                       "-w", "2; 1, 1, 1, 1")
    assert code == 0
    payload = json.loads(out)
    diag = payload["diagnostics"]
    assert set(diag) == STABILITY_KEYS
    assert payload["methods"] == ["flow"]
    assert diag["route"] == "flow_stable" and not payload["inconclusive"]
    assert diag["flow_status"] == "converged" and type(diag["flow_iterations"]) is int
    assert diag["end_dim"] == 1
    assert 0 <= diag["residual"] <= diag["lambda_min"] / 4
    assert diag["gap"] < 0 < diag["dual_bound"]  # no positive score can exist
    assert diag["hn_dims"] == [2] and diag["hn_slopes"] == ["2"]
    assert diag["inconclusive_reasons"] == []
    assert set(diag["times_ms"]) == {"flow", "hessian"}
    assert all(type(v) is float for v in diag["times_ms"].values())
    near = files["dir"] + "/near.rep"
    Path(near).write_text("poset p11.poset\nambient 2\n"
                          "span a1 cols 1\n1.0+0.0j\n0.0+0.0j\n"
                          "span a2 cols 1\n1.0+0.0j\n3e-09+0.0j\n")
    code, out, _ = run(capsys, "--output", "json", "stability", near, "-w", "1; 1, 1")
    assert code == 0
    payload = json.loads(out)
    diag = payload["diagnostics"]
    assert set(diag) == STABILITY_KEYS
    assert payload["methods"] == ["flow"] and payload["inconclusive"]
    assert diag["route"] == "uncertified"
    assert diag["flow_status"] == "converged"
    assert diag["inconclusive_reasons"] == ["rank_guard"]
    assert set(diag["times_ms"]) == {"flow", "hessian", "schur"}
    code, out, _ = run(capsys, "stability", near, "-w", "1; 1, 1")
    assert code == 0 and out.splitlines()[-1] == "route: uncertified (rank_guard)"


def test_stability_json_certifies_where_the_lattice_overflowed(capsys, tmp_path):
    """Rep 9 of the seeded antichain sequence (six subspaces of C^6), whose
    lattice overflows 512 members: the flow stops on a plateau with its
    residual below the least bound a positive score would give, so it is
    semistable, and the near-kernel direction of the Hessian gives a
    score-0 witness: certified, not inconclusive.  The planted line's
    lattice overflows too, and the line, among the members found before
    the cap, scores 1.  Through the CLI the flow's plateau certifies the
    planted line, with the HN type of the line (slopes 4 and 8/3 against
    sigma = 3), at chi0 = 3 and at chi0 = 4, which breaks the trace
    identity and is read at the slope weight."""
    rng = np.random.default_rng(2026)
    for i in range(10):
        rep, w = random_antichain_rep(rng, bent=i % 2 == 1)
    (tmp_path / "anti.poset").write_text(fileio.serialize_poset(rep.poset))
    (tmp_path / "rep9.rep").write_text(fileio.serialize_rep(rep, "anti.poset"))
    weight = "; ".join([str(w.chi0), ", ".join(str(w.chi[e]) for e in rep.poset.elements)])
    code, out, _ = run(capsys, "--output", "json", "stability", str(tmp_path / "rep9.rep"),
                       "-w", weight)
    assert code == 0
    payload = json.loads(out)
    diag = payload["diagnostics"]
    assert payload["classification"] == "semistable_not_polystable"
    assert payload["best_score"] == "0" and not payload["inconclusive"]
    assert diag["route"] == "flow_boundary" and diag["flow_status"] == "plateau"
    assert diag["residual"] < diag["dual_bound"] and diag["inconclusive_reasons"] == []
    assert pr.subspace_score(rep, w, np.array(
        [[fileio.parse_complex(z) for z in row] for row in payload["witness"]])) == 0
    rep, w = planted_line_rep(np.random.default_rng(0))
    lattice = oracle_lattice_verdict(rep, w, cap=64)
    assert lattice.overflow
    assert lattice.classification == pr.UNSTABLE and lattice.best_score == 1
    (tmp_path / "anti6.poset").write_text(fileio.serialize_poset(rep.poset))
    (tmp_path / "planted.rep").write_text(fileio.serialize_rep(rep, "anti6.poset"))
    for chi0, identity in (("3", True), ("4", False)):
        code, out, _ = run(capsys, "--output", "json", "stability",
                           str(tmp_path / "planted.rep"), "-w", chi0 + "; 1, 1, 1, 1, 1, 1")
        assert code == 0
        payload = json.loads(out)
        diag = payload["diagnostics"]
        assert payload["classification"] == "unstable" and payload["best_score"] == "1"
        assert payload["trace_identity"] is identity
        assert diag["route"] == "flow_unstable" and diag["flow_status"] == "plateau"
        assert diag["hn_dims"] == [1, 3] and diag["hn_slopes"] == ["4", "8/3"]
        assert abs(diag["gap"]) < 1e-6 and diag["inconclusive_reasons"] == []


def test_solve_writes_outputs(capsys, files, tmp_path):
    prefix = str(tmp_path / "out")
    code, out, _ = run(
        capsys, "solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--prefix", prefix
    )
    assert code == 0
    assert "status: converged" in out
    report = json.loads((tmp_path / "out.report.json").read_text())
    assert report["status"] == "converged"
    assert report["residual"] < 1e-8
    assert report["attempts"] >= report["iterations"] > 0
    system, _ = fileio.load_projection_system(prefix + ".proj")
    assert pr.orthoscalar_check(system).passed


def test_solve_default_prefix_next_to_rep(capsys, files, tmp_path):
    code, _, _ = run(capsys, "solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1")
    assert code == 0
    assert (tmp_path / "lam2.report.json").exists()
    assert (tmp_path / "lam2.proj").exists()


def test_solve_non_convergence_exit_2(capsys, files, tmp_path):
    prefix = str(tmp_path / "stuck")
    code, out, _ = run(
        capsys, "solve", files["same.rep"], "-w", "1; 1, 1", "--prefix", prefix
    )
    assert code == 2
    assert "status: plateau" in out
    report = json.loads((tmp_path / "stuck.report.json").read_text())
    assert report["status"] == "plateau"
    assert not (tmp_path / "stuck.proj").exists()


def test_solve_unstable_plateau_exit_2(capsys, files, tmp_path):
    """Four of six 2-planes in C^4 through one line: the flow stalls above
    the norm of the Harder-Narasimhan type and stops in tens of iterations
    with a plateau."""
    rep, _ = planted_line_rep(np.random.default_rng(3))
    (tmp_path / "anti6.poset").write_text(fileio.serialize_poset(rep.poset))
    (tmp_path / "planted.rep").write_text(fileio.serialize_rep(rep, "anti6.poset"))
    code, out, _ = run(
        capsys, "--output", "json", "solve", str(tmp_path / "planted.rep"),
        "-w", "3; 1, 1, 1, 1, 1, 1",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "plateau"
    assert payload["iterations"] <= 100
    assert payload["hvp"] >= payload["iterations"]
    assert payload["residual"] > np.sqrt(4 / 3) - 1e-9
    assert payload["files"] == [str(tmp_path / "planted.report.json")]


def test_solve_trace_identity_failure_exit_1(capsys, files):
    code, _, err = run(capsys, "solve", files["same.rep"], "-w", "2; 1, 1")
    assert code == 1
    assert "error:" in err


def test_malformed_rep_exit_1(capsys, files):
    code, _, err = run(capsys, "stability", files["broken.rep"], "-w", "1; 1")
    assert code == 1
    assert "poset" in err


def test_missing_file_exit_1(capsys, files):
    code, _, err = run(capsys, "kleiner", files["dir"] + "/nope.poset")
    assert code == 1
    assert "error:" in err


def _long_flags(parser: argparse.ArgumentParser) -> set[str]:
    return {o for a in parser._actions for o in a.option_strings if o.startswith("--")}


def test_readme_flags_match_the_parser():
    """Every --flag in the README's "Command line" section exists: in the
    command table and in example lines it is a global flag or a flag of
    the subcommand named there, elsewhere a global flag or a flag of some
    subcommand.  Every subcommand has a table row, and every option of a
    subcommand appears in its row (by its long or its short name)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    global_flags = _long_flags(parser)
    sub_flags = {name: _long_flags(sp) - global_flags for name, sp in commands.items()}
    every_flag = global_flags.union(*sub_flags.values())
    rows = {}
    for line in section.splitlines():
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
        named = re.match(r"\| `([a-z-]+)|posetrep ([a-z][a-z-]*)", line)
        if named:
            command = named.group(1) or named.group(2)
            assert flags <= global_flags | sub_flags[command], line
            if named.group(1):
                rows[command] = line
        else:
            assert flags <= every_flag, line
    assert set(rows) == set(commands)
    for name, sp in commands.items():
        for action in sp._actions:
            if not action.option_strings or set(action.option_strings) & (global_flags | {"-h"}):
                continue
            assert any(re.search(rf"(?<![\w-]){o}(?![\w-])", rows[name])
                       for o in action.option_strings), (name, action.option_strings)


def test_usage_errors_exit_1(capsys, files):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(
        capsys, "stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--use-flow"
    )
    assert code == 1
    assert "--use-flow" in err
    # the lattice route runs no random search, so it takes no --restarts
    code, out, err = run(
        capsys, "stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--restarts", "5"
    )
    assert (code, out) == (1, "")
    assert "--restarts" in err
    # every split draws from a fixed generator, so there is no seed to set
    stability = ["stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1"]
    code, out, _ = run(capsys, "--seed", "7", *stability)
    assert (code, out) == (1, "")
    code, out, err = run(capsys, *stability, "--seed", "7")
    assert (code, out) == (1, "")
    assert "--seed" in err
    proj = files["dir"] + "/sphere.proj"
    fileio.save_projection_system(pr.sphere_projection_system(0.6, 0.8, 0.0), proj, "anti4.poset")
    negative = [
        ("--max-iter", ["stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--max-iter", "-5"]),
        ("--max-len", ["invariants", proj, "--max-len", "-1"]),
    ]
    for flag, argv in negative:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), flag
        assert flag in err
    code, out, _ = run(capsys, "invariants", proj, "--max-len", "0")
    assert (code, out) == (0, "orthoscalar: yes\n")


def test_invariants_on_solution(capsys, files, tmp_path):
    prefix = str(tmp_path / "inv")
    run(capsys, "solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--prefix", prefix)
    code, out, _ = run(capsys, "invariants", prefix + ".proj", "--max-len", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orthoscalar: yes"
    words = dict(line.split(": ", 1) for line in lines[1:])
    total = sum(
        fileio.parse_complex(words[e]).real for e in ("a1", "a2", "a3", "a4")
    )
    # Four rank-one projections obeying sum chi_e P_e = chi0 I trace to
    # chi0 * d0 = 4 in total.
    assert abs(total - 4.0) < 1e-8


@pytest.mark.parametrize("d0", [1, 2, 16])
def test_invariants_json_values_match_per_entry_oracle(capsys, tmp_path, d0):
    """The JSON invariants are the per-entry text of the trace words, key
    for key, on seeded systems of eight elements with rank-0 projections
    among them."""
    rng = np.random.default_rng(d0)
    p = pr.primitive_poset(*[1] * 8)
    ranks = {e: int(rng.integers(0, d0 + 1)) for e in p.elements}
    projs = {}
    for e in p.elements:
        q = random_subspace(rng, d0, ranks[e])
        projs[e] = q @ q.conj().T
    ps = pr.ProjectionSystem(p, pr.Weight(1, {e: 1 for e in p.elements}), projs, ranks)
    (tmp_path / "anti8.poset").write_text(fileio.serialize_poset(p))
    proj = str(tmp_path / "eight.proj")
    fileio.save_projection_system(ps, proj, "anti8.poset")
    code, out, _ = run(capsys, "--output", "json", "invariants", proj)
    assert code == 0
    loaded, _ = fileio.load_projection_system(proj)
    expected = {" ".join(word): oracle_format_complex(val)
                for word, val in pr.unitary_invariants(loaded).items()}
    assert json.loads(out)["invariants"] == expected
    assert len(expected) == 8 + 36 + 176 + 1044


def test_stability_json_witness_matches_per_entry_oracle(capsys, tmp_path):
    """The witness of the planted line, as the CLI prints it, is the
    per-entry text of the verdict's witness."""
    rep, _ = planted_line_rep(np.random.default_rng(0))
    (tmp_path / "anti6.poset").write_text(fileio.serialize_poset(rep.poset))
    path = str(tmp_path / "planted.rep")
    (tmp_path / "planted.rep").write_text(fileio.serialize_rep(rep, "anti6.poset"))
    code, out, _ = run(capsys, "--output", "json", "stability", path, "-w", "3; 1, 1, 1, 1, 1, 1")
    assert code == 0
    loaded, _ = fileio.load_rep(path)
    verdict = pr.stability_check(loaded, fileio.parse_weight("3; 1, 1, 1, 1, 1, 1", loaded.poset))
    assert verdict.witness is not None
    assert json.loads(out)["witness"] == [
        [oracle_format_complex(z) for z in row] for row in verdict.witness.tolist()
    ]


def test_invariants_text_and_json_agree(capsys, tmp_path):
    """Text and JSON list the same words with the same formatted values;
    the text sorts them by length, then by name (ten elements, so a10
    comes before a2 there but after it in the element order)."""
    rng = np.random.default_rng(5)
    p = pr.primitive_poset(*[1] * 10)
    ranks = {e: int(rng.integers(0, 4)) for e in p.elements}
    projs = {}
    for e in p.elements:
        q = random_subspace(rng, 3, ranks[e])
        projs[e] = q @ q.conj().T
    ps = pr.ProjectionSystem(p, pr.Weight(1, {e: 1 for e in p.elements}), projs, ranks)
    (tmp_path / "anti10.poset").write_text(fileio.serialize_poset(p))
    proj = str(tmp_path / "ten.proj")
    fileio.save_projection_system(ps, proj, "anti10.poset")
    code, text, _ = run(capsys, "invariants", proj, "--max-len", "3")
    assert code == 0
    code, out, _ = run(capsys, "--output", "json", "invariants", proj, "--max-len", "3")
    assert code == 0
    payload = json.loads(out)
    lines = text.splitlines()
    assert lines[0] == "orthoscalar: " + ("yes" if payload["orthoscalar"] else "no")
    listed = [line.split(": ", 1) for line in lines[1:]]
    assert dict(listed) == payload["invariants"]
    assert len(listed) == len(payload["invariants"]) == 10 + 55 + 340
    words = [word.split() for word, _ in listed]
    assert words == sorted(words, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# the sweep

def test_fourspace_sweep_csv(capsys, files, tmp_path):
    out_path = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys,
        "fourspace-sweep",
        "--lambdas",
        "2, 0, zzz",
        "--out",
        out_path,
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lambda"] for r in rows] == ["2", "0", "zzz"]

    generic = rows[0]
    assert generic["status"] == "converged"
    assert generic["exceptional"] == "no"
    assert abs(float(generic["invariant_sum"]) - 1.0) < 1e-6
    assert generic["summands"] == "1"

    boundary = rows[1]
    assert boundary["status"] == "converged"
    assert boundary["exceptional"] == "yes"
    assert boundary["summands"] == "2"
    assert float(boundary["residual"]) < 1e-3

    bogus = rows[2]
    assert bogus["status"] == "error:invalid-lambda"
    assert bogus["residual"] == ""


def test_fourspace_sweep_json_rows(capsys, tmp_path):
    """--output json writes a list of row objects with the CSV columns as
    keys, in column order, and the CSV's string values, to stdout or to
    --out."""
    grid = "2, inf, zzz"
    code, out, _ = run(capsys, "fourspace-sweep", "--lambdas", grid)
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out)))
    code, out, _ = run(capsys, "--output", "json", "fourspace-sweep", "--lambdas", grid)
    assert code == 0
    rows = json.loads(out)
    assert rows == csv_rows
    assert all(list(row) == list(cli._SWEEP_COLUMNS) for row in rows)
    assert [row["status"] for row in rows] == ["converged", "converged", "error:invalid-lambda"]
    out_path = tmp_path / "sweep.json"
    code, out, _ = run(capsys, "fourspace-sweep", "--lambdas", grid, "--output", "json",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text()) == rows


def test_fourspace_sweep_stdout_header(capsys):
    code, out, _ = run(capsys, "fourspace-sweep", "--lambdas", " ")
    assert code == 0
    assert out.splitlines()[0].startswith("lambda,status,exceptional")
    assert len(out.strip().splitlines()) == 1


def test_fourspace_sweep_goes_on_past_nan_and_infinite_lambdas(capsys):
    """NaN is an invalid-lambda row, not an aborted sweep; every infinite
    value is the point infinity."""
    code, out, _ = run(capsys, "fourspace-sweep", "--lambdas", "2, nan, 3, -1e400")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["lambda"] for r in rows] == ["2", "nan", "3", "-1e400"]
    assert [r["status"] for r in rows[:3]] == ["converged", "error:invalid-lambda", "converged"]
    assert rows[3]["exceptional"] == "yes"
    assert rows[3]["status"] == "converged"


def test_fourspace_sweep_bad_chi_writes_no_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    for chi in ("2; 1, 1", "x; 1, 1, 1, 1"):
        code, out, err = run(
            capsys, "fourspace-sweep", "--lambdas", "2, nan", "--chi", chi,
            "--out", str(out_path),
        )
        assert code == 1
        assert "error:" in err
        assert out == ""
        assert not out_path.exists()


def sweep_row(token, chi=None) -> dict:
    """The row of one lambda; stdout is captured here, since a hypothesis
    test cannot use the capsys fixture."""
    weight = ["--chi", chi] if chi else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fourspace-sweep", f"--lambdas={token}", *weight]) == 0
    return next(csv.DictReader(io.StringIO(out.getvalue())))


def test_fourspace_sweep_summands_follow_the_line_scores():
    """summands is 1 exactly when the four lines are stable for the weight,
    whatever the weight: a line of score 0 splits the limit in two."""
    cases = [
        # V4 carries half the weight: score 0 at every lambda, split
        ("3; 1, 1, 1, 3", "2", "2"),
        ("3; 1, 1, 1, 3", "0.5+0.5i", "2"),
        # V1 carries half the weight, and V3 = V4 carries less
        ("3; 3, 1, 1, 1", "1", "2"),
        # V1 = V4 scores 1 + 1/2 - 7/4 < 0: stable at an exceptional point
        ("7/4; 1, 1, 1, 1/2", "0", "1"),
        # V1 and V4 meet within the rank tolerance, so V1 scores 0
        (None, "1e-10", "2"),
    ]
    for chi, token, summands in cases:
        row = sweep_row(token, chi)
        assert (row["status"], row["summands"]) == ("converged", summands), (chi, token, row)


_SWEEP_WEIGHTS = ("2; 1, 1, 1, 1", "3; 1, 1, 1, 3", "3; 3, 1, 1, 1", "7/4; 1, 1, 1, 1/2")


@st.composite
def sweep_lambdas(draw) -> str:
    """A lambda token: generic (modulus 10^-1..10, argument at least 0.3
    from the real axis's positive side), 10^-1..10^-8 from a boundary
    point, or a boundary point."""
    kind = draw(st.sampled_from(("generic", "near", "exceptional")))
    if kind == "exceptional":
        return draw(st.sampled_from(("0", "1", "inf")))
    if kind == "generic":
        lam = 10 ** draw(st.floats(-1, 1)) * cmath.exp(1j * draw(st.floats(0.3, 2 * math.pi - 0.3)))
    else:
        distance = 10 ** -draw(st.floats(1, 8))
        phase = cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
        base = draw(st.sampled_from((0.0, 1.0, math.inf)))
        lam = phase / distance if base == math.inf else base + distance * phase
    return f"{lam.real!r}{'+' if lam.imag >= 0 else '-'}{abs(lam.imag)!r}i"


@settings(max_examples=100, deadline=None)
@given(sweep_lambdas(), st.sampled_from(_SWEEP_WEIGHTS))
@example("2", "3; 1, 1, 1, 3")
@example("0.5+0.5i", "3; 1, 1, 1, 3")
@example("1e-4+1e-4i", "2; 1, 1, 1, 1")
def test_fourspace_sweep_summands_match_the_stability_class(token, chi):
    """On a converged row, summands is 1 exactly when stability_check calls
    the lines stable (where its verdict is certified); for the default
    weight it also matches the count of the decomposed numerical limit."""
    row = sweep_row(token, chi)
    if row["status"] != "converged":
        return
    lam = pr.parse_lambda(token)
    w = fileio.parse_weight(chi, pr.FOUR_ANTICHAIN)
    verdict = pr.stability_check(pr.four_lines_rep(lam), w)
    if not verdict.inconclusive:
        assert (row["summands"] == "1") == (verdict.classification == pr.STABLE), verdict
    if chi == _SWEEP_WEIGHTS[0]:
        assert row["summands"] == str(oracle_sweep_summands(lam, w))


def test_fourspace_sweep_trace_identity_error_row(capsys):
    code, out, _ = run(
        capsys, "fourspace-sweep", "--lambdas", "2", "--chi", "3; 1, 1, 1, 1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "error:trace-identity"


# ---------------------------------------------------------------------------
# global flags and environment

def test_global_flags_accepted_both_sides(capsys, files):
    code1, out1, _ = run(
        capsys, "--output", "json", "kleiner", files["p12.poset"]
    )
    code2, out2, _ = run(
        capsys, "kleiner", files["p12.poset"], "--output", "json"
    )
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_env_output_default(capsys, files, monkeypatch):
    monkeypatch.setenv("PRL_OUTPUT", "json")
    code, out, _ = run(capsys, "kleiner", files["p12.poset"])
    assert code == 0
    assert json.loads(out)["finite"] is True


def test_env_flag_overridden_by_cli(capsys, files, monkeypatch):
    monkeypatch.setenv("PRL_OUTPUT", "json")
    code, out, _ = run(capsys, "kleiner", files["p12.poset"], "--output", "text")
    assert code == 0
    assert out.startswith("representation-finite:")


def test_parser_built_once_reads_env_per_call(capsys, files, monkeypatch):
    """The parser is cached for the process; the environment and the flags
    of one call do not carry over to the next."""
    from posetrep.cli import build_parser

    assert build_parser() is build_parser()
    monkeypatch.setenv("PRL_OUTPUT", "text")
    code1, out1, _ = run(capsys, "kleiner", files["p12.poset"])
    monkeypatch.setenv("PRL_OUTPUT", "json")
    code2, out2, _ = run(capsys, "kleiner", files["p12.poset"])
    monkeypatch.delenv("PRL_OUTPUT")
    code3, out3, _ = run(capsys, "--output", "json", "kleiner", files["p12.poset"])
    code4, out4, _ = run(capsys, "kleiner", files["p12.poset"])
    assert code1 == code2 == code3 == code4 == 0
    assert out1.startswith("representation-finite: yes")
    assert json.loads(out2)["finite"] is True
    assert json.loads(out3)["finite"] is True
    assert out4.startswith("representation-finite: yes")


def test_env_bad_values_exit_1(capsys, files, monkeypatch):
    monkeypatch.setenv("PRL_OUTPUT", "yaml")
    code, _, err = run(capsys, "kleiner", files["p12.poset"])
    assert code == 1
    assert "PRL_OUTPUT" in err
    monkeypatch.delenv("PRL_OUTPUT")
    monkeypatch.setenv("PRL_MAX_ITER", "soon")
    code, _, err = run(capsys, "kleiner", files["p12.poset"])
    assert code == 1
    assert "PRL_MAX_ITER" in err


def test_bad_tol_and_max_iter_exit_1(capsys, files, monkeypatch):
    """A tolerance must be finite and positive and an iteration cap
    nonnegative, whether given by flag or by environment variable."""
    stability = ["stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1"]
    solve = ["solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--prefix", files["dir"] + "/bad"]
    bad = [("--tol", "PRL_TOL", v, stability) for v in ("nan", "inf", "0", "-1")]
    bad.append(("--max-iter", "PRL_MAX_ITER", "-5", solve))
    for flag, var, value, argv in bad:
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (1, ""), (flag, value)
        assert flag in err
        monkeypatch.setenv(var, value)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), (var, value)
        assert var in err
        monkeypatch.delenv(var)


def test_env_max_iter_limits_flow(capsys, files, tmp_path, monkeypatch):
    monkeypatch.setenv("PRL_MAX_ITER", "2")
    prefix = str(tmp_path / "capped")
    code, out, _ = run(
        capsys, "solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--prefix", prefix
    )
    assert code == 2
    assert "status: max_iter" in out


def test_cli_deterministic_output(capsys, files):
    argv = ["stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_solve_proj_poset_path_resolves(capsys, files, tmp_path):
    other = tmp_path / "elsewhere"
    other.mkdir()
    prefix = str(other / "sol")
    code, _, _ = run(
        capsys, "solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--prefix", prefix
    )
    assert code == 0
    system, _ = fileio.load_projection_system(prefix + ".proj")
    assert system.poset == pr.FOUR_ANTICHAIN
