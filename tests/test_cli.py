import csv
import io
import json

import numpy as np
import pytest

import posetrep as pr
from posetrep import fileio
from posetrep.cli import main


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
    assert "lattice_exact" in lines["methods"]


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


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys)
    assert code == 1


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


def test_env_max_iter_limits_flow(capsys, files, tmp_path, monkeypatch):
    monkeypatch.setenv("PRL_MAX_ITER", "2")
    prefix = str(tmp_path / "capped")
    code, out, _ = run(
        capsys, "solve", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--prefix", prefix
    )
    assert code == 2
    assert "status: max_iter" in out


def test_cli_deterministic_output(capsys, files):
    argv = ["stability", files["lam2.rep"], "-w", "2; 1, 1, 1, 1", "--seed", "7"]
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
