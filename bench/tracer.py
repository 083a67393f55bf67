"""Spans and counters around the calls into each posetrep layer.

The wrappers are installed at the name each caller looks up: ``cli`` binds
most library functions by name at import, while ``linrep`` and ``moment``
call ``linalg.<fn>`` through the module, and ``linalg``, ``poset`` and
``bound_quiver`` call their own functions through module globals.  Each
call records a span (name, start, end, parent) in memory; the spans are
written out at the end of the run.  A span's self time is its duration
minus the time its child spans cover.  The scalar helpers
``fileio.format_complex`` and ``fileio.parse_complex`` and the small
linalg helpers are not wrapped; their time is their caller's.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: linalg functions each of which runs exactly one SVD when its argument is
#: nonempty, mapped to whether that SVD computes singular vectors
SVD_FUNCTIONS = {"singular_values": False, "orthonormal_columns": True,
                 "null_space": True}
#: linalg functions that get spans; singular_values is only counted, so its
#: time is its caller's (same_subspace, rank_with_guard, condition_number)
LINALG_SPANS = ("orthonormal_columns", "subspace_intersection", "null_space",
                "subspace_sum", "same_subspace", "rank_with_guard",
                "condition_number", "herm_expm", "random_subspace")
FILEIO_SKIPPED = {"format_complex", "parse_complex"}


def svd_flops(shape, vectors: bool) -> float:
    """Model flop count of one complex SVD of a p x q matrix, p >= q:
    4 (4 p q^2 - 4/3 q^3) for values only, 4 (14 p q^2 + 8 q^3) with the thin
    vectors (Golub and Van Loan's counts, times 4 for complex arithmetic)."""
    p, q = max(shape), min(shape)
    real = 14 * p * q * q + 8 * q ** 3 if vectors else 4 * p * q * q - 4 * q ** 3 / 3
    return 4.0 * real


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_result=None, on_error=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(args)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **hooks))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self):
        from posetrep import bound_quiver, cli, fileio, linalg, linrep, moment, poset

        c = self.counts

        # linalg: one patch per module attribute covers both the callers
        # that go through the module and linalg's own global calls.
        for fn in LINALG_SPANS:
            hooks = {}
            if fn in SVD_FUNCTIONS:
                hooks["on_call"] = self._svd_hook(fn)
            self.patch(linalg, fn, f"linalg.{fn}", **hooks)
        count_svd = self._svd_hook("singular_values")
        singular_values = linalg.singular_values

        def counted(m):
            count_svd((m,))
            return singular_values(m)

        self._undo.append((linalg, "singular_values", singular_values))
        linalg.singular_values = counted

        # fileio: cli calls it through the module; nested calls use globals.
        for fn in sorted(vars(fileio)):
            obj = getattr(fileio, fn)
            if (callable(obj) and not fn.startswith("_") and fn not in FILEIO_SKIPPED
                    and getattr(obj, "__module__", "") == fileio.__name__
                    and not isinstance(obj, type)):
                self.patch(fileio, fn, f"fileio.{fn}")

        for fn in ("four_lines_rep", "is_exceptional", "parse_lambda"):
            self.patch(cli, fn, f"families.{fn}")

        def kleiner_hit(result):
            c["poset.order_isomorphic.hits"] += bool(result)

        self.patch(cli, "hasse_quiver", "poset.hasse_quiver")
        self.patch(bound_quiver, "hasse_quiver", "poset.hasse_quiver")
        self.patch(cli, "is_representation_finite", "poset.is_representation_finite")
        self.patch(poset, "order_isomorphic", "poset.order_isomorphic",
                   on_result=kleiner_hit)

        def quiver_size(bq):
            c["bound_quiver.paths"] += len(bq.path_basis)
            c["bound_quiver.relations"] += len(bq.relations)

        for owner in (cli, bound_quiver):
            self.patch(owner, "bound_quiver_of", "bound_quiver.bound_quiver_of",
                       on_result=quiver_size)
        for fn in ("euler_form", "quotient_dim_lower_bound"):
            self.patch(cli, fn, f"bound_quiver.{fn}")
        for fn in ("cartan_matrix", "minimal_relation_counts"):
            self.patch(bound_quiver, fn, f"bound_quiver.{fn}")
        self.patch(bound_quiver.BoundQuiver, "paths", "bound_quiver.BoundQuiver.paths")

        def verdict(v):
            c["linrep.verdicts"] += 1
            c["linrep.inconclusive"] += bool(v.inconclusive)

        def lattice_members(members):
            c["linrep.subspace_lattice.members"] += len(members)

        def lattice_overflow(exc):
            if type(exc).__name__ == "LatticeTooLarge":
                c["linrep.subspace_lattice.overflows"] += 1

        self.patch(cli, "stability_check", "linrep.stability_check", on_result=verdict)
        self.patch(linrep, "subspace_lattice", "linrep.subspace_lattice",
                   on_result=lattice_members, on_error=lattice_overflow)
        self.patch(linrep, "saturate_subspace", "linrep.saturate_subspace")
        for owner in (cli, linrep):
            self.patch(owner, "decompose", "linrep.decompose")
        self.patch(linrep, "endomorphism_algebra", "linrep.endomorphism_algebra")

        def flow_report(result):
            report = result[1]
            c["moment.flow.iters"] += report.iterations
            c["moment.flow.max_iter"] += report.status == "max_iter"

        for owner in (cli, moment):
            self.patch(owner, "kempf_ness_flow", "moment.kempf_ness_flow",
                       on_result=flow_report)
        self.patch(cli, "orthoscalar_check", "moment.orthoscalar_check")
        self.patch(cli, "unitary_invariants", "moment.unitary_invariants")

    def _svd_hook(self, fn):
        vectors = SVD_FUNCTIONS[fn]
        c = self.counts

        def hook(args):
            shape = np.shape(args[0])
            if len(shape) != 2 or 0 in shape:
                return  # returns early, no SVD
            c["linalg.svd.calls"] += 1
            c["linalg.svd.flop"] += svd_flops(shape, vectors)

        return hook

    # -- analysis ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(
            self.start, dtype=np.float64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=selft, minlength=k)
        out = defaultdict(lambda: (0, 0.0, 0.0))
        for i, name in enumerate(self.names):
            out[name] = (int(calls[i]), float(total[i]), float(own[i]))
        return out, names, parent

    def write(self, path: str) -> None:
        n = len(self.start)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
                 start=np.frombuffer(self.start, dtype=np.float64)[:n],
                 end=np.frombuffer(self.end, dtype=np.float64)[:n])


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics from the recorded spans and counters."""
    t, names, parent = tr.totals()
    c = tr.counts
    ms = 1e3

    def self_ms(prefix):
        return sum(v[2] for k, v in t.items() if k.startswith(prefix)) * ms

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "cli.self_ms": (t["cli.main"][2] * ms, "ms"),
        "fileio.calls": (sum(v[0] for k, v in t.items() if k.startswith("fileio.")),
                         "count"),
        "fileio.self_ms": (self_ms("fileio."), "ms"),
        "families.self_ms": (self_ms("families."), "ms"),
        "poset.hasse_quiver.self_ms": (t["poset.hasse_quiver"][2] * ms, "ms"),
        "poset.is_representation_finite.self_ms":
            (t["poset.is_representation_finite"][2] * ms, "ms"),
        "poset.order_isomorphic.calls": (t["poset.order_isomorphic"][0], "count"),
        "poset.kleiner.hit_ratio": (ratio(c["poset.order_isomorphic.hits"],
                                          t["poset.order_isomorphic"][0]), "ratio"),
        "bound_quiver.paths": (c["bound_quiver.paths"], "count"),
        "bound_quiver.relations": (c["bound_quiver.relations"], "count"),
        "bound_quiver.BoundQuiver.paths.calls":
            (t["bound_quiver.BoundQuiver.paths"][0], "count"),
    }
    for fn in ("bound_quiver_of", "minimal_relation_counts", "cartan_matrix",
               "euler_form", "quotient_dim_lower_bound"):
        out[f"bound_quiver.{fn}.self_ms"] = (t[f"bound_quiver.{fn}"][2] * ms, "ms")
    for fn in ("stability_check", "subspace_lattice", "saturate_subspace",
               "decompose", "endomorphism_algebra"):
        out[f"linrep.{fn}.self_ms"] = (t[f"linrep.{fn}"][2] * ms, "ms")
    out["linrep.subspace_lattice.members"] = (c["linrep.subspace_lattice.members"],
                                              "count")
    out["linrep.subspace_lattice.overflows"] = (c["linrep.subspace_lattice.overflows"],
                                                "count")
    out["linrep.saturate_subspace.calls"] = (t["linrep.saturate_subspace"][0], "count")
    out["linrep.decompose.calls"] = (t["linrep.decompose"][0], "count")
    out["linrep.inconclusive_frac"] = (ratio(c["linrep.inconclusive"],
                                             c["linrep.verdicts"]), "ratio")

    flow = tr._ids.get("moment.kempf_ness_flow", -2)
    expm = tr._ids.get("linalg.herm_expm", -3)
    in_flow = (names == expm) & (parent >= 0)
    attempts = int(np.sum(names[parent[in_flow]] == flow)) if in_flow.any() else 0
    iters = c["moment.flow.iters"]
    calls, total, own = t["moment.kempf_ness_flow"]
    out.update({
        "moment.kempf_ness_flow.calls": (calls, "count"),
        "moment.kempf_ness_flow.self_ms": (own * ms, "ms"),
        "moment.flow.iters": (iters, "count"),
        "moment.flow.us_per_iter": (ratio(total * 1e6, iters), "us"),
        "moment.flow.attempts_per_iter": (ratio(attempts, iters), "ratio"),
        "moment.flow.max_iter_frac": (ratio(c["moment.flow.max_iter"], calls), "ratio"),
        "moment.orthoscalar_check.self_ms": (t["moment.orthoscalar_check"][2] * ms, "ms"),
        "moment.unitary_invariants.calls": (t["moment.unitary_invariants"][0], "count"),
        "moment.unitary_invariants.self_ms":
            (t["moment.unitary_invariants"][2] * ms, "ms"),
        "linalg.svd.calls": (c["linalg.svd.calls"], "count"),
        "linalg.svd.mflop": (c["linalg.svd.flop"] / 1e6, "Mflop-computed"),
    })
    for fn in LINALG_SPANS:
        calls, _, own = t[f"linalg.{fn}"]
        out[f"linalg.{fn}.calls"] = (calls, "count")
        out[f"linalg.{fn}.self_ms"] = (own * ms, "ms")
    return out
