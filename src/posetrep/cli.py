"""Command-line interface.

Subcommands: hasse, kleiner, euler, dim-quotient, stability, solve,
invariants, fourspace-sweep.  Global flags (before the subcommand, or after
it) are --tol, --max-iter, --output; each falls back to the environment
variables PRL_TOL, PRL_MAX_ITER, PRL_OUTPUT.

Exit codes: 0 success, 1 invalid input, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import Sequence

from . import fileio, linrep
from .bound_quiver import (
    assignment_report,
    bound_quiver_of,
    euler_form,
    quotient_dim_lower_bound,
)
from .errors import NoTraceIdentity, PosetRepError
from .families import (
    FOUR_ANTICHAIN,
    FOURSPACE_WEIGHT,
    four_lines_rep,
    is_exceptional,
    parse_lambda,
)
# decompose stays a name of this module: bench/tracer.py patches it here.
from .linrep import decompose  # noqa: F401
from .moment import FlowOptions, kempf_ness_flow, orthoscalar_check, unitary_invariants
# hasse_quiver stays a name of this module: bench/tracer.py patches it here.
from .poset import hasse_quiver, is_representation_finite  # noqa: F401
# stability_check stays a name of this module: bench/tracer.py patches it here.
from .stability import DIAGNOSTICS, stability_check


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for non-convergence, so route usage errors through 1.
    def error(self, message):
        raise _UsageError(message)


def _given(args, *names: str) -> dict:
    """The named options that were set by a flag or an environment
    variable; the library's defaults stand for the rest."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# combinatorial subcommands

def _cmd_hasse(args) -> int:
    bq = bound_quiver_of(fileio.load_poset(args.poset))
    q = bq.quiver
    lines = ["vertices: " + " ".join(q.vertices), "arrows:"]
    lines += [f"  {s} -> {t}" for s, t in q.arrows]
    lines.append(f"relations: {bq.relation_count}")
    _emit(
        args,
        {
            "vertices": list(q.vertices),
            "arrows": [list(a) for a in q.arrows],
            "relations": bq.relation_count,
        },
        "\n".join(lines),
    )
    return 0


def _cmd_kleiner(args) -> int:
    p = fileio.load_poset(args.poset)
    res = is_representation_finite(p)
    lines = [f"representation-finite: {'yes' if res.finite else 'no'}"]
    lines += [
        f"  contains {name} on {', '.join(subset)}"
        for name, subset in res.witnesses
    ]
    _emit(
        args,
        {
            "finite": res.finite,
            "witnesses": [
                {"critical": name, "elements": list(subset)}
                for name, subset in res.witnesses
            ],
        },
        "\n".join(lines),
    )
    return 0


def _cmd_euler(args) -> int:
    p = fileio.load_poset(args.poset)
    bq = bound_quiver_of(p)
    d = fileio.parse_dim_vector(args.dim, p)
    e = fileio.parse_dim_vector(args.second, p) if args.second else None
    val = euler_form(bq, d, e)
    _emit(args, {"euler_form": val}, str(val))
    return 0


def _cmd_dim_quotient(args) -> int:
    p = fileio.load_poset(args.poset)
    if not args.search_assignments:
        d = fileio.parse_dim_vector(args.dim, p)
        qd = quotient_dim_lower_bound(bound_quiver_of(p), d)
        _emit(
            args,
            {"value": qd.value, "empty_quotient": qd.empty_quotient},
            str(qd.value),
        )
        return 0

    root, groups = fileio.parse_dim_groups(args.dim)
    rep = assignment_report(p, root, groups, target=args.expect)
    values = sorted({val for _, val in rep.assignments})
    lines = []
    for assignment, val in rep.assignments:
        pairs = " ".join(f"{e}={x}" for e, x in assignment)
        lines.append(f"assignment {pairs} -> {val}")
    if args.expect is not None:
        lines.append(f"target: {args.expect}")
        lines.append(f"matched: {'yes' if rep.matched else 'no'}")
        if not rep.matched:
            lines.append(
                "DISCREPANCY: no nesting-consistent assignment attains "
                f"{args.expect}; values seen: {values}"
            )
    _emit(
        args,
        {
            "assignments": [
                {"assignment": dict(a), "value": v} for a, v in rep.assignments
            ],
            "target": rep.target,
            "matched": rep.matched,
            "values_seen": values,
        },
        "\n".join(lines),
    )
    return 0


# ---------------------------------------------------------------------------
# linear-representation subcommands

def _route_text(diagnostics: dict) -> str:
    """The route, with the reasons in parentheses when it is uncertified."""
    reasons = diagnostics["inconclusive_reasons"]
    return diagnostics["route"] + (f" ({', '.join(reasons)})" if reasons else "")


def _cmd_stability(args) -> int:
    rep, _ = fileio.load_rep(args.rep)
    w = fileio.parse_weight(args.weight, rep.poset)
    verdict = stability_check(rep, w, **_given(args, "tol"))
    lines = [
        f"classification: {verdict.classification}",
        f"best_score: {verdict.best_score if verdict.best_score is not None else 'none'}",
        f"trace_identity: {'yes' if verdict.trace_identity else 'no'}",
        f"methods: {', '.join(verdict.methods)}",
        f"inconclusive: {'yes' if verdict.inconclusive else 'no'}",
        f"route: {_route_text(verdict.diagnostics)}",
    ]
    witness = None
    if verdict.witness is not None:
        witness = fileio.format_complex_rows(verdict.witness)
        lines.append(f"witness_dim: {verdict.witness.shape[1]}")
    _emit(
        args,
        {
            "classification": verdict.classification,
            "best_score": str(verdict.best_score)
            if verdict.best_score is not None
            else None,
            "trace_identity": verdict.trace_identity,
            "methods": list(verdict.methods),
            "inconclusive": verdict.inconclusive,
            "witness": witness,
            "diagnostics": {k: verdict.diagnostics[k] for k in DIAGNOSTICS},
        },
        "\n".join(lines),
    )
    return 0


def _cmd_solve(args) -> int:
    rep, poset_path = fileio.load_rep(args.rep)
    w = fileio.parse_weight(args.weight, rep.poset)
    system, report = kempf_ness_flow(rep, w, FlowOptions(**_given(args, "tol", "max_iter")))
    prefix = args.prefix or os.path.splitext(args.rep)[0]
    report_path = prefix + ".report.json"
    payload = report.as_dict()
    with fileio.overwrite(report_path) as fh:
        fh.write(fileio.report_to_json(payload))
    written = [report_path]
    proj_path = prefix + ".proj"
    if system is not None:
        out_dir = os.path.dirname(os.path.abspath(proj_path))
        poset_abs = os.path.join(
            os.path.dirname(os.path.abspath(args.rep)), poset_path
        )
        fileio.save_projection_system(
            system, proj_path, os.path.relpath(poset_abs, out_dir)
        )
        written.append(proj_path)
    elif os.path.isfile(proj_path):
        # a system left by an earlier run would pass for this input's
        os.remove(proj_path)
    # the file keeps the final metric and the per-iteration lists; stdout
    # drops them
    for key in ("final_metric", "history", "steps", "trials", "hvps"):
        payload.pop(key, None)
    payload["files"] = written
    _emit(
        args,
        payload,
        "\n".join(
            [
                f"status: {report.status}",
                f"iterations: {report.iterations}",
                f"residual: {report.residual:.6e}",
                f"gradient: {report.gradient_norm:.6e}",
                "files: " + " ".join(written),
            ]
        ),
    )
    return 0 if report.status == "converged" else 2


def _cmd_invariants(args) -> int:
    ps, _ = fileio.load_projection_system(args.projections)
    check = orthoscalar_check(ps, **_given(args, "tol"))
    traces = unitary_invariants(ps, **_given(args, "max_len"))
    values = dict(zip(traces, fileio.format_complexes(list(traces.values()))))
    if args.output != "json":
        # the listing sorts the words by name; JSON output has no use for it
        lines = [f"orthoscalar: {'yes' if check.passed else 'no'}"]
        lines += [
            f"{' '.join(word)}: {val}"
            for word, val in sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
        print("\n".join(lines))
        return 0
    # json.dumps with an indent runs the pure-Python encoder, which is most
    # of the time of a few thousand words.  The flat word map goes through
    # the C encoder instead, with the indent's separators, and is spliced
    # in: the text is json.dumps(payload, sort_keys=True, indent=2) byte for
    # byte.  The rest of the payload, like every other command's, is small
    # and keeps json.dumps, which beats a writer of per-container C calls.
    words = {" ".join(word): val for word, val in values.items()}
    body = json.dumps(words, sort_keys=True, separators=(",\n    ", ": "))
    if words:
        body = "{\n    " + body[1:-1] + "\n  }"
    head = json.dumps(
        {"orthoscalar": check.passed, "checks": check.as_dict(), "invariants": None},
        sort_keys=True,
        indent=2,
    )
    print(head.replace('"invariants": null', '"invariants": ' + body, 1))
    return 0


# ---------------------------------------------------------------------------
# four-subspace sweep

_SWEEP_COLUMNS = (
    "lambda",
    "status",
    "exceptional",
    "a_sq",
    "b_sq",
    "c_sq",
    "invariant_sum",
    "residual",
    "iterations",
    "summands",
)


def _sweep_row(token: str, args, w) -> dict:
    row = {col: "" for col in _SWEEP_COLUMNS}
    row["lambda"] = token
    try:
        lam = parse_lambda(token)
    except PosetRepError:
        row["status"] = "error:invalid-lambda"
        return row
    row["exceptional"] = "yes" if is_exceptional(lam) else "no"
    rep = four_lines_rep(lam)
    try:
        system, report = kempf_ness_flow(rep, w, FlowOptions(**_given(args, "tol", "max_iter")))
    except NoTraceIdentity:
        row["status"] = "error:trace-identity"
        return row
    row["status"] = report.status
    row["residual"] = repr(report.residual)
    row["iterations"] = str(report.iterations)
    if system is None:
        return row
    t14, t13, t12 = system.sphere_coordinates()
    row["a_sq"], row["b_sq"], row["c_sq"] = repr(t14), repr(t13), repr(t12)
    row["invariant_sum"] = repr(t14 + t13 + t12)
    # The limit is the orthoscalar form of the polystable associated graded
    # (King 1994).  In C^2 every proper subspace is a line and only the V_e
    # score above -sigma, so it is one summand iff the lines are stable, and
    # two (a score-0 line and its quotient) otherwise.
    scores = linrep._Scorer(rep, w, linrep.DEFAULT_TOL)(list(rep.spans.values()))
    row["summands"] = "1" if all(num < 0 for num, _ in scores) else "2"
    return row


def _cmd_fourspace_sweep(args) -> int:
    tokens = [tok.strip() for tok in args.lambdas.split(",") if tok.strip()]
    w = FOURSPACE_WEIGHT if args.chi is None else fileio.parse_weight(args.chi, FOUR_ANTICHAIN)
    rows = (_sweep_row(token, args, w) for token in tokens)
    if args.out:
        target = fileio.overwrite(args.out, newline="")
    else:
        target = contextlib.nullcontext(sys.stdout)
    with target as out:
        if args.output == "json":
            out.write(json.dumps(list(rows), indent=2) + "\n")
        else:
            writer = csv.DictWriter(out, fieldnames=_SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _env_default(name: str, cast, fallback):
    raw = os.environ.get("PRL_" + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise _UsageError(f"bad value {raw!r} for PRL_{name}") from None


def finite_positive_float(raw: str) -> float:
    """Cast of --tol and PRL_TOL."""
    value = float(raw)
    if not 0 < value < math.inf:
        raise ValueError(raw)
    return value


def nonnegative_int(raw: str) -> int:
    """Cast of --max-iter, PRL_MAX_ITER and --max-len."""
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def _output_choice(raw: str) -> str:
    if raw not in ("text", "json"):
        raise ValueError(raw)
    return raw


def _global_options() -> argparse.ArgumentParser:
    par = _Parser(add_help=False)
    g = par.add_argument_group("global options")
    g.add_argument("--tol", type=finite_positive_float, default=argparse.SUPPRESS,
                   help="numerical tolerance, finite and > 0 (default per command; "
                        "env PRL_TOL)")
    g.add_argument("--max-iter", type=nonnegative_int, default=argparse.SUPPRESS,
                   help="iteration cap for flows, >= 0 (env PRL_MAX_ITER)")
    g.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS,
                   help="report format (env PRL_OUTPUT)")
    return par


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged, and environment defaults are read after parsing, in
    :func:`_fill_globals`, so the cached parser freezes no setting."""
    common = _global_options()
    parser = _Parser(prog="posetrep", parents=[common], description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("hasse", parents=[common],
                        help="covering quiver of the poset extended by a top element")
    sp.add_argument("poset", help="poset file")
    sp.set_defaults(func=_cmd_hasse)

    sp = sub.add_parser("kleiner", parents=[common],
                        help="representation-finiteness via critical subposets")
    sp.add_argument("poset")
    sp.set_defaults(func=_cmd_kleiner)

    sp = sub.add_parser("euler", parents=[common],
                        help="Euler form of dimension vectors on the bound quiver")
    sp.add_argument("poset")
    sp.add_argument("-d", "--dim", required=True, help="'d0; d_1, d_2, ...'")
    sp.add_argument("-e", "--second", help="second dimension vector (default: d)")
    sp.set_defaults(func=_cmd_euler)

    sp = sub.add_parser("dim-quotient", parents=[common],
                        help="moduli dimension lower bound for a dimension vector")
    sp.add_argument("poset")
    sp.add_argument("-d", "--dim", required=True)
    sp.add_argument("--search-assignments", action="store_true",
                    help="try every nesting-consistent placement of the "
                         "semicolon-grouped entries")
    sp.add_argument("--expect", type=int, default=None,
                    help="flag whether any assignment attains this value")
    sp.set_defaults(func=_cmd_dim_quotient)

    sp = sub.add_parser("stability", parents=[common],
                        help="classify a subspace representation for a weight")
    sp.add_argument("rep", help="representation file")
    sp.add_argument("-w", "--weight", required=True, help="'chi0; chi_1, ...'")
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("solve", parents=[common],
                        help="Kempf-Ness flow to the orthoscalar representative")
    sp.add_argument("rep")
    sp.add_argument("-w", "--weight", required=True)
    sp.add_argument("--prefix", help="output prefix (default: rep path stem)")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("invariants", parents=[common],
                        help="trace monomials of a projection system")
    sp.add_argument("projections", help="projection-system file")
    sp.add_argument("--max-len", type=nonnegative_int, help="longest trace word, >= 0")
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("fourspace-sweep", parents=[common],
                        help="flow the four-line family over a lambda grid, CSV "
                             "(or JSON with --output json) out")
    sp.add_argument("--lambdas", required=True,
                    help="comma-separated lambda values; 'inf' for the line <e2>")
    sp.add_argument("--chi", help="weight (default: the four-line weight)")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_fourspace_sweep)

    return parser


def _fill_globals(args) -> None:
    # The global flags keep SUPPRESS defaults so a value given before the
    # subcommand survives the subparser pass (set_defaults would mutate the
    # shared parent actions and let the subparser clobber it); absent flags
    # are filled from the environment here instead.
    if not hasattr(args, "tol"):
        args.tol = _env_default("TOL", finite_positive_float, None)
    if not hasattr(args, "max_iter"):
        args.max_iter = _env_default("MAX_ITER", nonnegative_int, None)
    if not hasattr(args, "output"):
        args.output = _env_default("OUTPUT", _output_choice, "text")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _fill_globals(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PosetRepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
