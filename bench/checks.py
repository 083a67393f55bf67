"""Output checks, written independently of posetrep.

Each check takes the operation's expectation (known by construction) and
its captured stdout, and returns the names of the checks that failed; an
empty list means the output is right.  Linear algebra is plain numpy and
the poset invariants are computed here from the definitions: path counts,
the Moebius function and open intervals.  Nothing here imports posetrep.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

TOL = 1e-6
SWEEP_COLUMNS = ["lambda", "status", "exceptional", "a_sq", "b_sq", "c_sq",
                 "invariant_sum", "residual", "iterations", "summands"]


# ---------------------------------------------------------------------------
# four-subspace sweep

def sweep(exp: dict, out: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if len(rows) != 2 or rows[0] != SWEEP_COLUMNS:
        return ["csv"]
    row = dict(zip(SWEEP_COLUMNS, rows[1]))
    if row["lambda"] != exp["token"]:
        return ["csv"]
    if row["status"] != "converged":
        return ["status"]
    failed = []
    if row["exceptional"] != ("yes" if exp["exceptional"] else "no"):
        failed.append("exceptional")
    a, b, c = (float(row[k]) for k in ("a_sq", "b_sq", "c_sq"))
    if not all(-1e-9 <= x <= 1 + 1e-9 for x in (a, b, c)):
        failed.append("range")
    if abs(float(row["invariant_sum"]) - 1) > TOL:
        failed.append("invariant_sum")
    if row["summands"] != ("2" if exp["exceptional"] else "1"):
        failed.append("summands")
    # cross-ratio identity (b^2 + c^2) / (a^2 + c^2) = |lambda|
    lam = exp["lam"]
    if lam == math.inf:
        bad = a + c > TOL
    else:
        bad = abs((b + c) - abs(lam) * (a + c)) > TOL * max(1.0, abs(lam))
    if bad:
        failed.append("cross_ratio")
    return failed


# ---------------------------------------------------------------------------
# solve and invariants

def _parse_proj(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    d0 = int(lines[1].split()[1])
    head, _, tail = lines[2][len("weight "):].partition(";")
    chi0 = Fraction(head.strip())
    chi = [Fraction(t.strip()) for t in tail.split(",")]
    projs, ranks, idx = [], [], 3
    while idx < len(lines):
        _, _, _, rank = lines[idx].split()
        rows = [[complex(t.strip()) for t in ln.split(",")]
                for ln in lines[idx + 1: idx + 1 + d0]]
        projs.append(np.array(rows, dtype=complex))
        ranks.append(int(rank))
        idx += 1 + d0
    return d0, chi0, chi, projs, ranks


def solve(exp: dict, out: str) -> list[str]:
    report = json.loads(out)
    if report.get("status") != "converged":
        return ["status"]
    prefix = exp["prefix"]
    if sorted(report.get("files", [])) != sorted([prefix + ".proj",
                                                  prefix + ".report.json"]):
        return ["files"]
    d0, chi0, chi, projs, ranks = _parse_proj(prefix + ".proj")
    with open(prefix + ".report.json", encoding="utf-8") as fh:
        g = np.array([[complex(z) for z in row]
                      for row in json.load(fh)["final_metric"]], dtype=complex)
    n, k = exp["n"], exp["k"]
    if d0 != exp["d"] or chi0 != exp["chi0"] or chi != [1] * n or ranks != [k] * n:
        return ["header"]
    failed = set()
    total = -float(chi0) * np.eye(d0)
    for p, c, v in zip(projs, chi, exp["spans"].values()):
        if np.linalg.norm(p - p.conj().T) > TOL:
            failed.add("hermitian")
        if np.linalg.norm(p @ p - p) > TOL:
            failed.add("idempotent")
        if (abs(np.trace(p).real - k) > TOL
                or int(np.sum(np.linalg.eigvalsh((p + p.conj().T) / 2) > 0.5)) != k):
            failed.add("rank")
        q, _ = np.linalg.qr(g @ v)
        if np.linalg.norm(p - q @ q.conj().T) > TOL:
            failed.add("range")
        total = total + float(c) * p
    # the antichain posets have no order pairs, so nesting holds trivially
    if np.linalg.norm(total) > TOL:
        failed.add("scalar")
    return sorted(failed)


def necklaces(n: int, length: int) -> int:
    """Cyclic words of the given length over n letters."""
    total = sum(_phi(d) * n ** (length // d) for d in range(1, length + 1)
                if length % d == 0)
    return total // length


def _phi(m: int) -> int:
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def invariants(exp: dict, out: str) -> list[str]:
    res = json.loads(out)
    failed = []
    if res.get("orthoscalar") is not True:
        failed.append("orthoscalar")
    inv = res.get("invariants", {})
    n, k = exp["n"], exp["k"]
    for i in range(n):
        val = inv.get(f"a{i + 1}")
        if val is None or abs(complex(val) - k) > TOL:
            failed.append("trace")
            break
    if len(inv) != sum(necklaces(n, m) for m in range(1, exp["max_len"] + 1)):
        failed.append("words")
    return failed


# ---------------------------------------------------------------------------
# stability

def _rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


def subspace_score(spans: dict, d0: int, basis: np.ndarray) -> Fraction:
    """f(K) = sum_e dim(V_e /\\ K) - sigma dim K with unit weights chi_e."""
    k = _rank(basis)
    sigma = Fraction(sum(v.shape[1] for v in spans.values()), d0)
    inter = sum(v.shape[1] + k - _rank(np.hstack([v, basis])) for v in spans.values())
    return inter - sigma * k


def stability(exp: dict, out: str) -> list[str]:
    res = json.loads(out)
    if res.get("classification") != exp["class"]:
        return ["verdict"]
    if res["classification"] != "unstable":
        return []
    if not res.get("witness"):
        return ["witness"]
    basis = np.array([[complex(z) for z in row] for row in res["witness"]],
                     dtype=complex)
    score = subspace_score(exp["spans"], exp["d"], basis)
    failed = []
    if score <= 0:
        failed.append("witness")
    if Fraction(res["best_score"]) != score:
        failed.append("best_score")
    if exp.get("best_score") is not None and score != exp["best_score"]:
        failed.append("known_score")
    return failed


# ---------------------------------------------------------------------------
# posets: the benchmark's own combinatorics on the extended poset

TOP = "*"


class Extended:
    """The poset from its generating pairs, extended by a maximum '*'."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        self.verts = self.elements + [TOP]
        up = {x: set() for x in self.verts}
        for a, b in covers:
            up[a].add(b)
        for x in self.elements:
            up[x].add(TOP)
        # transitive closure by depth-first search from each vertex
        self.above = {}
        for x in self.verts:
            seen, stack = set(), list(up[x])
            while stack:
                y = stack.pop()
                if y not in seen:
                    seen.add(y)
                    stack.extend(up[y])
            self.above[x] = seen
        self.covers = {(a, b) for a in self.verts for b in self.above[a]
                       if not any(b in self.above[c] for c in self.above[a])}
        self.order = sorted(self.verts, key=lambda x: -len(self.above[x]))

    def less(self, a, b) -> bool:
        return b in self.above[a]

    def path_counts(self) -> dict:
        """Number of directed paths of length >= 1 along covers, per pair."""
        succ = {x: [b for a, b in self.covers if a == x] for x in self.verts}
        counts = {}
        for src in self.verts:
            ways = {src: 1}
            for x in self.order:  # topological: more elements above comes first
                if x in ways:
                    for y in succ[x]:
                        ways[y] = ways.get(y, 0) + ways[x]
            for dst, w in ways.items():
                if dst != src:
                    counts[(src, dst)] = w
        return counts

    def mobius(self) -> dict:
        mu = {}
        for x in self.verts:
            mu[(x, x)] = 1
            # more elements above comes first, so z < y is done before y
            for y in sorted(self.above[x], key=lambda y: -len(self.above[y])):
                mu[(x, y)] = -sum(mu[(x, z)] for z in [x, *self.above[x]]
                                  if z == x or self.less(z, y))
        return mu

    def interval_components(self, a, b) -> int:
        inner = [z for z in self.above[a] if self.less(z, b)]
        parent = {z: z for z in inner}

        def find(z):
            while parent[z] != z:
                z = parent[z]
            return z

        for u, v in combinations(inner, 2):
            if self.less(u, v) or self.less(v, u):
                parent[find(u)] = find(v)
        return len({find(z) for z in inner})

    def width(self) -> int:
        """Largest antichain of the original poset (Dilworth, by matching)."""
        match: dict = {}

        def augment(x, seen):
            for y in self.above[x]:
                if y == TOP or y in seen:
                    continue
                seen.add(y)
                if y not in match or augment(match[y], seen):
                    match[y] = x
                    return True
            return False

        return len(self.elements) - sum(augment(x, set()) for x in self.elements)


def _by_vertex(ext: Extended, vec) -> dict:
    return dict(zip([TOP] + ext.elements, vec))


def hasse(exp: dict, out: str) -> list[str]:
    res = json.loads(out)
    ext = Extended(exp["elements"], exp["covers"])
    failed = []
    if res["vertices"] != ext.elements + [TOP]:
        failed.append("vertices")
    if {tuple(a) for a in res["arrows"]} != ext.covers:
        failed.append("arrows")
    relations = sum(n * (n - 1) // 2 for n in ext.path_counts().values())
    if res["relations"] != relations:
        failed.append("relations")
    return failed


def euler(exp: dict, out: str) -> list[str]:
    ext = Extended(exp["elements"], exp["covers"])
    d, e = _by_vertex(ext, exp["d"]), _by_vertex(ext, exp["e"])
    value = sum(d[x] * m * e[y] for (x, y), m in ext.mobius().items())
    return [] if json.loads(out)["euler_form"] == value else ["euler_form"]


def dim_quotient(exp: dict, out: str) -> list[str]:
    res = json.loads(out)
    ext = Extended(exp["elements"], exp["covers"])
    d = _by_vertex(ext, exp["d"])
    value = 1 - sum(x * x for x in d.values())
    value += sum(d[a] * d[b] for a, b in ext.covers)
    # minimal relations r(i, j) = components of the open interval (i, j) - 1
    for a in ext.verts:
        for b in ext.above[a]:
            value -= max(ext.interval_components(a, b) - 1, 0) * d[a] * d[b]
    failed = []
    if res["value"] != value:
        failed.append("value")
    if res["empty_quotient"] != (not any(exp["d"])):
        failed.append("empty_quotient")
    return failed


#: Kleiner's critical posets by shape: chain lengths of the components, with
#: "N" for the four-element zigzag.
CRITICAL = {"(1,1,1,1)": [1, 1, 1, 1], "(2,2,2)": [2, 2, 2], "(1,3,3)": [1, 3, 3],
            "(1,2,5)": [1, 2, 5], "(N,4)": [4, "N"]}


def shape(ext: Extended, subset) -> list | None:
    """Component shapes of the full subposet on subset: a chain gives its
    length, the zigzag a < b > c < d gives 'N', anything else None."""
    subset = list(subset)
    comps: list[list] = []
    for x in subset:
        linked = [c for c in comps if any(ext.less(x, y) or ext.less(y, x) for y in c)]
        merged = [x] + [y for c in linked for y in c]
        comps = [c for c in comps if c not in linked] + [merged]
    out = []
    for c in comps:
        pairs = [(u, v) for u in c for v in c if ext.less(u, v)]
        if len(pairs) == len(c) * (len(c) - 1) // 2:
            out.append(len(c))
        elif len(c) == 4 and len(pairs) == 3 and all(
                sum(x in p for p in pairs) <= 2 for x in c):
            out.append("N")
        else:
            return None
    return sorted(out, key=str)


def kleiner(exp: dict, out: str) -> list[str]:
    res = json.loads(out)
    ext = Extended(exp["elements"], exp["covers"])
    failed = []
    if res["finite"] != (not res["witnesses"]):
        failed.append("consistency")
    width = ext.width()
    if (width <= 2 and not res["finite"]) or (width >= 4 and res["finite"]):
        failed.append("width")
    for w in res["witnesses"]:
        want = CRITICAL.get(w["critical"])
        if want is None or shape(ext, w["elements"]) != sorted(want, key=str):
            failed.append("witness")
            break
    return failed


CHECKS = {"sweep": sweep, "solve": solve, "invariants": invariants,
          "stability": stability, "hasse": hasse, "euler": euler,
          "dim_quotient": dim_quotient, "kleiner": kleiner}
