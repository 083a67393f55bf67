"""Seeded inputs for the four benchmark workloads.

Each workload is built from ``--seed`` as a fixed composition of
operations; only the inputs change with the seed.  One operation is one
``posetrep`` command line (an argv list for ``posetrep.cli.main``).  The
input files are written here by the benchmark's own serializers, and each
operation carries what its check needs, known by construction, so that no
verdict comes from posetrep itself.

The compositions are laid out so that the median and the tail rank (the
eleventh slowest operation) each fall inside a block of operations of one
kind and similar cost, not on the border between two kinds; that keeps both
figures steady from seed to seed.

Nothing in this module imports posetrep.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("solve", "sweep", "stability", "quiver")

#: Known defects of the program, recorded as the baseline.  An operation of
#: one of these kinds whose failed checks all lie in the allowed set counts
#: as failed (it lowers ok_frac) but leaves the run correct; any other
#: failure makes the run incorrect.
KNOWN_DEFECTS = {
    "sweep.exceptional": (
        frozenset({"invariant_sum", "cross_ratio"}),
        "boundary lambda is run to residual 1e-4 only, so the sphere "
        "identities are off by about 7e-5",
    ),
    "sweep.deep": (
        frozenset({"status"}),
        "closer than about 1e-4 to the boundary the flow stops at max_iter",
    ),
    "stability.sum": (
        frozenset({"verdict"}),
        "direct sum of equal-slope stables is called stable: the score-0 "
        "summand is not in the lattice",
    ),
    "stability.planted": (
        frozenset({"verdict"}),
        "planted common line is missed after the lattice overflows; the "
        "verdict is stable",
    ),
    "stability.boundary": (
        frozenset({"verdict"}),
        "four lines at 0, 1 or inf are called polystable_not_stable; they "
        "are semistable_not_polystable",
    ),
}


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: str
    expect: dict


# ---------------------------------------------------------------------------
# file writers (the posetrep text formats)

def fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


def write_poset(path: str, elements, covers) -> None:
    lines = [f"elem {e}" for e in elements]
    lines += [f"cover {a} < {b}" for a, b in covers]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rep(path: str, poset_file: str, d0: int, spans: dict) -> None:
    lines = [f"poset {poset_file}", f"ambient {d0}"]
    for e, m in spans.items():
        lines.append(f"span {e} cols {m.shape[1]}")
        lines += [", ".join(fmt_complex(z) for z in row) for row in m]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def antichain(n: int) -> list[str]:
    return [f"a{i + 1}" for i in range(n)]


def weight_text(chi0: Fraction, n: int) -> str:
    return f"{chi0}; " + ", ".join(["1"] * n)


def gaussian(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    return rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))


def lambda_token(lam) -> str:
    """Grid token for a lambda; complex values use the 'i' unit."""
    if lam == math.inf:
        return "inf"
    lam = complex(lam)
    return f"{lam.real!r}{'+' if lam.imag >= 0 else '-'}{abs(lam.imag)!r}i"


def four_lines_spans(lam) -> dict:
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    fourth = e2 if lam == math.inf else e1 + complex(lam) * e2
    return dict(zip(antichain(4), (e1, e2, e1 + e2, fourth)))


def generic_lambda(rng: np.random.Generator, u=None, phase=None) -> complex:
    """A lambda at distance at least 0.3 from 0, 1 and infinity, with
    |lambda| = 10^(u - 0.5) and argument 2 pi phase for u, phase in [0, 1)
    (uniform when not given).  Near 1 the argument is drawn again."""
    u = rng.uniform() if u is None else u
    phase = rng.uniform() if phase is None else phase
    while True:
        lam = 10 ** (u - 0.5) * np.exp(2j * np.pi * phase)
        if abs(lam - 1) >= 0.3:
            return complex(lam)
        phase = rng.uniform()


def generic_lambdas(rng: np.random.Generator, count: int) -> list[complex]:
    """count generic lambdas in a Latin hypercube over (log |lambda|,
    argument): one in each of count bands of either.  The flow's iteration
    count depends on lambda, so stratifying keeps the mix of costs the same
    from seed to seed while every lambda still changes with it."""
    phases = rng.permutation(count)
    return [generic_lambda(rng, (j + rng.uniform()) / count,
                           (phases[j] + rng.uniform()) / count)
            for j in range(count)]


def near_boundary(rng: np.random.Generator, distance: float):
    """A lambda at the given distance from a random boundary point; the
    distance from infinity is |1 / lambda|."""
    base = ("0", "1", "inf")[int(rng.integers(3))]
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    if base == "inf":
        return complex(phase / distance)
    return complex(float(base) + distance * phase)


# ---------------------------------------------------------------------------
# solve: flow on generic k-planes, then trace invariants of the result

#: (elements n, ambient d, plane dimension k, solve+invariants pairs).  The
#: d = 2 pairs hold the median; the d = 16 invariants (about 150 ms) are the
#: tail block.
SOLVE_CLASSES = ((4, 2, 1, 40), (5, 4, 2, 4), (6, 8, 4, 4), (10, 16, 8, 12))


def unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def solve_spans(rng: np.random.Generator, n: int, d: int, k: int, lam=None) -> dict:
    """Generic k-planes.  The four lines in C^2 (given lam) are
    four_lines_spans at that generic lambda in a random unitary frame: the
    flow's iteration count depends on the cross-ratio, and Gaussian lines
    put a few of them close to the boundary, which would move the median
    block from seed to seed."""
    if lam is not None:
        u = unitary(rng, 2)
        return {e: u @ q for e, q in four_lines_spans(lam).items()}
    return {e: gaussian(rng, d, k) for e in antichain(n)}


def _solve(rng, workdir):
    ops, pairs = [], []
    for n in {c[0] for c in SOLVE_CLASSES}:
        write_poset(os.path.join(workdir, f"anti{n}.poset"), antichain(n), [])
    for n, d, k, count in SOLVE_CLASSES:
        lams = generic_lambdas(rng, count) if d == 2 else [None] * count
        for j, lam in enumerate(lams):
            spans = solve_spans(rng, n, d, k, lam)
            stem = os.path.join(workdir, f"d{d}_{j}")
            write_rep(stem + ".rep", f"anti{n}.poset", d, spans)
            chi0 = Fraction(n * k, d)
            expect = {"n": n, "d": d, "k": k, "chi0": chi0, "spans": spans,
                      "prefix": stem}
            pairs.append((
                Op(f"solve.d{d}", ["--output", "json", "solve", stem + ".rep",
                                   "-w", weight_text(chi0, n), "--prefix", stem],
                   "solve", expect),
                Op(f"invariants.d{d}", ["--output", "json", "invariants",
                                        stem + ".proj"],
                   "invariants", {"n": n, "k": k, "max_len": 4}),
            ))
    for idx in rng.permutation(len(pairs)):
        ops.extend(pairs[idx])
    warm = os.path.join(workdir, "warm")
    write_rep(warm + ".rep", "anti4.poset", 2, four_lines_spans(2.0))
    warmup = [["solve", warm + ".rep", "-w", "2; 1, 1, 1, 1", "--prefix", warm],
              ["invariants", warm + ".proj"]]
    return ops, warmup


# ---------------------------------------------------------------------------
# sweep: one lambda per fourspace-sweep command

#: Near-boundary operations (log10 of the distance from a random boundary
#: point, count); each distance is drawn log-uniformly within +-0.05 decade.
#: The sixteen at 10^-1.5 (about 220 iterations) are the tail block, behind
#: the two at 10^-2, the exceptional and the deep operation.
SWEEP_NEAR = ((-2, 2), (-1.5, 16))
SWEEP_GENERIC = 50
#: Iteration cap of the deep operation.  It stops at the cap whatever the
#: cap is (at 10^-3 the flow already needs about 6,200 iterations); 2000
#: (about 0.4 s) instead of the default 20,000 (about 6 s) leaves room in a
#: run for more rounds.
SWEEP_DEEP_MAX_ITER = 2000


def _sweep(rng, workdir):
    token = ("0", "1", "inf")[int(rng.integers(3))]
    batch = [("sweep.exceptional", math.inf if token == "inf" else float(token), token)]
    lam = near_boundary(rng, 10 ** rng.uniform(-5, -4))
    batch.append(("sweep.deep", lam, lambda_token(lam)))
    for centre, count in SWEEP_NEAR:
        for _ in range(count):
            lam = near_boundary(rng, 10 ** (centre + rng.uniform(-0.05, 0.05)))
            batch.append((f"sweep.near{centre}", lam, lambda_token(lam)))
    for lam in generic_lambdas(rng, SWEEP_GENERIC):
        batch.append(("sweep.generic", lam, lambda_token(lam)))
    ops = []
    for idx in rng.permutation(len(batch)):
        kind, lam, tok = batch[idx]
        deep = kind == "sweep.deep"
        cap = ["--max-iter", str(SWEEP_DEEP_MAX_ITER)] if deep else []
        # '--lambdas=<token>': argparse reads a lone '-1.2+0.5i' as an option.
        ops.append(Op(kind, cap + ["fourspace-sweep", f"--lambdas={tok}"], "sweep",
                      {"lam": lam, "token": tok,
                       "exceptional": kind == "sweep.exceptional"}))
    return ops, [["fourspace-sweep", "--lambdas=2"]]


# ---------------------------------------------------------------------------
# stability: classes known by construction

STABLE, POLY = "stable", "polystable_not_stable"
SEMI, UNSTABLE = "semistable_not_polystable", "unstable"

#: generic k-planes (n, d, k, count), each stable.  The (5, 4, 2) planes
#: (about 130 ms) hold both the median and the tail rank: below them are
#: the ten reps in C^2 and two sums (80 to 110 ms), above them the sum in
#: C^8, the (8, 6, 3) and (10, 10, 5) planes and the planted (6, 4, 2, 4).
STABILITY_GENERIC = ((4, 2, 1, 7), (5, 4, 2, 16), (8, 6, 3, 1), (10, 10, 5, 1))
#: planted common line (n, d, k, m): the first m subspaces share one line
STABILITY_PLANTED = ((6, 4, 2, 4), (4, 2, 1, 3), (5, 2, 1, 3))


def _block_sum(a: dict, b: dict, da: int, db: int) -> dict:
    out = {}
    for e in a:
        qa, qb = a[e], b[e]
        q = np.zeros((da + db, qa.shape[1] + qb.shape[1]), dtype=complex)
        q[:da, : qa.shape[1]] = qa
        q[da:, qa.shape[1]:] = qb
        out[e] = q
    return out


def _stability(rng, workdir):
    for n in {c[0] for c in STABILITY_GENERIC + STABILITY_PLANTED}:
        write_poset(os.path.join(workdir, f"anti{n}.poset"), antichain(n), [])

    def add(batch, kind, n, d, spans, chi0, cls, **extra):
        path = os.path.join(workdir, f"s{len(batch)}.rep")
        write_rep(path, f"anti{n}.poset", d, spans)
        batch.append(Op(kind, ["--output", "json", "stability", path, "-w",
                               weight_text(chi0, n)], "stability",
                        {"class": cls, "spans": spans, "d": d, "chi0": chi0, **extra}))

    batch: list[Op] = []
    for n, d, k, count in STABILITY_GENERIC:
        for _ in range(count):
            spans = {e: gaussian(rng, d, k) for e in antichain(n)}
            add(batch, f"stability.generic.d{d}", n, d, spans, Fraction(n * k, d),
                STABLE)
    for _ in range(2):
        a, b = generic_lambda(rng), generic_lambda(rng)
        add(batch, "stability.sum", 4, 4,
            _block_sum(four_lines_spans(a), four_lines_spans(b), 2, 2),
            Fraction(2), POLY)
    a = {e: gaussian(rng, 4, 2) for e in antichain(5)}
    b = {e: gaussian(rng, 4, 2) for e in antichain(5)}
    add(batch, "stability.sum", 5, 8, _block_sum(a, b, 4, 4), Fraction(5, 2), POLY)
    for n, d, k, m in STABILITY_PLANTED:
        line = gaussian(rng, d, 1)
        spans = {e: (np.hstack([line, gaussian(rng, d, k - 1)]) if i < m
                     else gaussian(rng, d, k))
                 for i, e in enumerate(antichain(n))}
        chi0 = Fraction(n * k, d)
        # In C^2 the planted line is the only line in more than n/2 of the
        # lines, so its score m - n/2 is the maximum.
        known = m - chi0 if d == 2 else None
        kind = "stability.planted-lines" if d == 2 else "stability.planted"
        add(batch, kind, n, d, spans, chi0, UNSTABLE, best_score=known)
    token = ("0", "1", "inf")[int(rng.integers(3))]
    lam = math.inf if token == "inf" else float(token)
    add(batch, "stability.boundary", 4, 2, four_lines_spans(lam), Fraction(2), SEMI)
    ops = [batch[i] for i in rng.permutation(len(batch))]
    warm = os.path.join(workdir, "warm.rep")
    write_rep(warm, "anti4.poset", 2, four_lines_spans(2.0))
    return ops, [["stability", warm, "-w", "2; 1, 1, 1, 1"]]


# ---------------------------------------------------------------------------
# quiver: combinatorial commands on seeded posets

def boolean_lattice(n: int):
    elems = [f"b{m}" for m in range(2 ** n)]
    covers = [(f"b{m}", f"b{m | 1 << i}") for m in range(2 ** n) for i in range(n)
              if not m >> i & 1]
    return elems, covers


def grid(a: int, b: int):
    elems = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(a - 1) for j in range(b)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(a) for j in range(b - 1)]
    return elems, covers


def random_poset(rng, n: int, p: float = 0.25):
    elems = [f"x{i}" for i in range(n)]
    covers = [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < p]
    return elems, covers


#: Random posets for the median block; three relabelled 3 x 4 grids give the
#: tail block (their kleiner commands), behind the Boolean lattice B4.
QUIVER_RANDOM = 20
QUIVER_RANDOM_SIZES = (8, 9, 10)


def _relabel(rng, elems, covers):
    """Random element names and file order; the poset is unchanged."""
    names = {e: f"v{k}" for k, e in zip(rng.permutation(len(elems)), elems)}
    order = [names[elems[i]] for i in rng.permutation(len(elems))]
    return order, [(names[a], names[b]) for a, b in covers]


def _dim_text(vec) -> str:
    return f"{vec[0]}; " + ", ".join(str(x) for x in vec[1:])


def _quiver(rng, workdir):
    posets = [boolean_lattice(4), grid(3, 4), grid(3, 4), grid(3, 4),
              boolean_lattice(3), grid(3, 3)]
    posets += [random_poset(rng, QUIVER_RANDOM_SIZES[i % len(QUIVER_RANDOM_SIZES)])
               for i in range(QUIVER_RANDOM)]
    batch = []
    for count, (elems, covers) in enumerate(posets):
        elems, covers = _relabel(rng, elems, covers)
        path = os.path.join(workdir, f"q{count}.poset")
        write_poset(path, elems, covers)
        d = [int(x) for x in rng.integers(0, 4, len(elems) + 1)]
        e = [int(x) for x in rng.integers(0, 4, len(elems) + 1)]
        expect = {"elements": elems, "covers": covers, "d": d, "e": e}
        kind = f"quiver.n{len(elems)}"
        batch += [
            Op(kind, ["--output", "json", "hasse", path], "hasse", expect),
            Op(kind, ["--output", "json", "euler", path, "-d", _dim_text(d),
                      "-e", _dim_text(e)], "euler", expect),
            Op(kind, ["--output", "json", "dim-quotient", path, "-d", _dim_text(d)],
               "dim_quotient", expect),
            Op(kind, ["--output", "json", "kleiner", path], "kleiner", expect),
        ]
    ops = [batch[i] for i in rng.permutation(len(batch))]
    warm = os.path.join(workdir, "warm.poset")
    write_poset(warm, *boolean_lattice(3))
    return ops, [["hasse", warm], ["euler", warm, "-d", _dim_text([1] * 9)]]


BUILDERS = {"solve": _solve, "sweep": _sweep, "stability": _stability,
            "quiver": _quiver}


def build(workload: str, seed: int, workdir: str):
    """Write the inputs under workdir; return (timed ops, warm-up argvs)."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, workdir)
