"""The stability gate: every verdict on a fixed set of inputs against a record.

The inputs are

- 300 antichain reps, ``random_antichain_rep(np.random.default_rng(2026),
  bent=i % 2 == 1)``;
- 150 nested reps of one ``np.random.default_rng(7)``
  (``random_nested_input``: a random poset on 1..5 elements, d0 in 2..5,
  ``random_nested_rep`` and weights chi_e in 1..3), each at the chi0 of
  the trace identity (where that is positive) and at chi0 + 1 (293
  inputs);
- every ``stability`` op of the benchmark's seeds 1, 3 and 7, run through
  the CLI in process (``--output json``).

Each goes through ``stability_check``.  The script prints the tallies of
routes and of the reasons of uncertified verdicts, then compares
classification and best score with ``tests/data/stability_gate.json`` and
lists every difference.  The best score is compared wherever the recorded
route certifies it, that is everywhere but on an ``uncertified`` verdict
(the best candidate's score, a lower bound at most).  A changed route,
inconclusive flag, reason or uncertified score is listed as information.
The script exits 1 on any difference in classification or certified best
score, and when more verdicts are ``uncertified`` than in the record (the
count is a ratchet); 0 otherwise.

    PYTHONPATH=src python tests/stability_gate.py             # compare
    PYTHONPATH=src python tests/stability_gate.py --record    # rewrite the record

pytest does not collect this file (no ``test_`` prefix); a run takes about
6 s on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RECORD = HERE / "data" / "stability_gate.json"
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

import posetrep as pr  # noqa: E402
from posetrep.cli import main as cli_main  # noqa: E402
from conftest import random_antichain_rep, random_nested_input  # noqa: E402

BENCH_SEEDS = (1, 3, 7)
#: listed when they change, as information only
INFO = ("best_score", "inconclusive", "route", "inconclusive_reasons")


def _entry(key: str, v: pr.StabilityVerdict) -> dict:
    d = v.diagnostics
    return {"id": key, "classification": v.classification,
            "best_score": None if v.best_score is None else str(v.best_score),
            "inconclusive": v.inconclusive, "route": d["route"],
            "inconclusive_reasons": list(d["inconclusive_reasons"])}


def _library_inputs():
    rng = np.random.default_rng(2026)
    for i in range(300):
        yield f"antichain/{i}", random_antichain_rep(rng, bent=i % 2 == 1)
    rng = np.random.default_rng(7)
    for i in range(150):
        rep, chi, chi0 = random_nested_input(rng)
        if chi0 > 0:
            yield f"nested/{i}", (rep, pr.Weight(chi0, chi))
        yield f"nested/{i}+1", (rep, pr.Weight(chi0 + 1, chi))


def _bench_entries(seed: int, workdir: str) -> list[dict]:
    import workloads

    ops, _ = workloads.build("stability", seed, f"{workdir}/{seed}")
    out = []
    for k, op in enumerate(ops):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(op.argv)
        if code != 0:
            raise SystemExit(f"bench seed {seed} op {k} ({op.kind}) exited {code}")
        payload = json.loads(buf.getvalue())
        d = payload["diagnostics"]
        out.append({"id": f"bench/{seed}/{k}", "classification": payload["classification"],
                    "best_score": payload["best_score"],
                    "inconclusive": payload["inconclusive"], "route": d["route"],
                    "inconclusive_reasons": d["inconclusive_reasons"]})
    return out


def run_gate() -> list[dict]:
    entries = [_entry(key, pr.stability_check(rep, w)) for key, (rep, w) in _library_inputs()]
    with tempfile.TemporaryDirectory() as workdir:
        for seed in BENCH_SEEDS:
            entries += _bench_entries(seed, workdir)
    return entries


def _tallies(entries: list[dict]) -> None:
    for group in ("antichain", "nested", "bench"):
        part = [e for e in entries if e["id"].startswith(group + "/")]
        routes = Counter(e["route"] for e in part)
        reasons = Counter(r for e in part for r in e["inconclusive_reasons"])
        print(f"{group}: {len(part)} inputs")
        print("  routes:      " + ", ".join(f"{k} {n}" for k, n in sorted(routes.items())))
        print("  uncertified: " + (", ".join(f"{k} {n}" for k, n in sorted(reasons.items()))
                                   or "none"))


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    par.add_argument("--record", action="store_true",
                     help="write the verdicts to the record instead of comparing")
    args = par.parse_args(argv)
    entries = run_gate()
    _tallies(entries)
    if args.record:
        RECORD.parent.mkdir(exist_ok=True)
        RECORD.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
        print(f"recorded {len(entries)} verdicts")
        return 0
    recorded = {e["id"]: e for e in json.loads(RECORD.read_text())}
    bad = 0
    if set(recorded) != {e["id"] for e in entries}:
        print("the inputs differ from the record's")
        bad += 1
    for e in entries:
        want = recorded.get(e["id"])
        if want is None:
            continue
        # an uncertified verdict carries its best candidate's score, which
        # it does not certify to be the maximum
        certified = want["route"] != "uncertified"
        if e["classification"] != want["classification"] or (
                certified and e["best_score"] != want["best_score"]):
            bad += 1
            print(f"DIFFERS {e['id']}: {want['classification']} {want['best_score']} -> "
                  f"{e['classification']} {e['best_score']}")
        elif [e[k] for k in INFO] != [want[k] for k in INFO]:
            print(f"changed {e['id']}: " + " ".join(str(want[k]) for k in INFO) + " -> "
                  + " ".join(str(e[k]) for k in INFO))
    print(f"{len(entries)} verdicts, {bad} differences in classification or best score")
    uncertified = sum(e["route"] == "uncertified" for e in entries)
    allowed = sum(e["route"] == "uncertified" for e in recorded.values())
    print(f"{uncertified} uncertified verdicts, {allowed} in the record")
    return 1 if bad or uncertified > allowed else 0


if __name__ == "__main__":
    sys.exit(main())
