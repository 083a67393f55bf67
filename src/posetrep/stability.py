r"""Slope stability read off the Kempf-Ness flow, with a certificate.

By Kempf-Ness and King (1994), the GL-orbit of a polystable representation
meets the zero of the moment map mu(g) = sum_e chi_e P_{g V_e} - chi0 I,
and the infimum of |mu|_F over the orbit of any representation is the norm
of its Harder-Narasimhan (HN) type (Ness 1984, Kirwan 1984).  So
``stability_check`` runs ``moment.kempf_ness_flow`` first and classifies
from its limit g.  L(x) = sum_e chi_e [P_e, [P_e, x]] is the Hessian of the
Kempf-Ness potential that the flow's Newton steps apply; each term is the
projector onto the part of x off the diagonal blocks of P_e, so L is
positive semidefinite, and its kernel on Hermitian x is the Hermitian
endomorphisms of g V.  On trace-zero Hermitian x at the limit it gives the
margin lambda_min.

Each route states its certificate.  A score f(K) (``linrep._Scorer``) is
an integer over the common denominator den = d0 lcm(weight denominators),
so a positive score is at least 1 / den.  Weak duality: for a flag
0 < K_1 < ... < K_m = V with subquotient dimensions n_j and score
increments c_j = f(K_j) - f(K_{j-1}) whose slopes c_j / n_j fall, the
one-parameter subgroup of the flag gives

    |mu(g)|_F >= sqrt(sum_j c_j^2 / n_j)      for every g in the orbit,

with equality in the infimum exactly for the HN filtration (for one step,
f(K) sqrt(d0 / (k (d0 - k)))).  So with r the flow's final residual:

- converged, dim End = 1 and r <= lambda_min / 4: ``stable``, margin
  lambda_min.  Along a unit geodesic t -> exp(t x) g the second derivative
  h(t) = sum_e chi_e |[P_e(t), x]|_F^2 of the potential obeys
  |h'| <= 4 |x|_op h, because dP_e/dt = [P_e, [P_e, x]] has the norm of
  [P_e, x]; so h(t) >= lambda_min e^(-4t), the derivative of the potential
  along every ray exceeds -r + lambda_min (1 - e^(-4t)) / 4, which turns
  positive once r < lambda_min / 4, and mu has a zero in that ball: the
  representation is polystable, and with End = C stable.  At the boundary
  of the four-line family r / lambda_min tends to 1 / sqrt(8), above 1/4.
- converged, dim End > 1: V splits along the generalized eigenspaces of
  a generic element of End (``linrep.generic_split``, the split that
  ``linrep.decompose_full`` recurses on), a linear-side decision.  Every
  summand is moved into the frame of the limit, where its own flow starts
  at the restricted, nearly orthoscalar system, and classified on its own
  (``_classify_summands``, King's rule, as on the lattice route).
  ``polystable_not_stable`` when all are (poly)stable, with the first
  summand's embedding as the score-0 witness; the equal slopes are the
  trace identity of each summand, checked exactly.
- converged, dim End = 1, lambda_min not clear of r: semistable, because
  r is below 2 / (den sqrt(d0)), the least dual bound of a positive
  score.  The nested eigenspaces of the near-kernel direction of L, pulled
  back by g^-1 and scored exactly, give a score-0 witness:
  ``semistable_not_polystable`` (indecomposable and not stable).
- plateau (or the iteration cap): the nested top-k eigenspaces of mu(g),
  pulled back by g^-1 and scored exactly, form a flag; the upper concave
  hull H of its points (k, f(K_k)) gives the dual bound D = |H|.  The HN
  polygon P majorizes every point (dim K, f(K)) and so H, its maximum is
  the largest score of all subspaces, and r^2 >= |P|^2 >= D^2 +
  |(P - H)'|^2 (H' falls).  Were max P above max H, P - H would reach
  1 / den at a vertex of P, and |(P - H)'|^2 >= 4 / (den^2 d0).  So with
  r^2 - D^2 below that, a positive maximum of f on H is ``unstable``
  with the largest score of all subspaces.  Below 1 / (den^2 lcm(1..d0)),
  the spacing of the sums of c^2 / n that |P|^2 and D^2 are, H is P: its
  pieces are the HN type (``hn_dims``, ``hn_slopes``; None otherwise).
  When a positive score leaves the gap open (the stall test can stop a
  plateau well above the HN norm), the flow runs once more from the
  plateau's metric, and the certificate is tried again at its end.

A candidate subspace whose rank guard fails (``linalg.subspace_intersections``:
an intersection dimension changes between 0.1 tol and 10 tol, as when the
flow leaves the planted line of four planes 3e-10 off them) is snapped onto
the V_e it nearly meets (``_snap``) and scored again; one that still fails
takes no part.  When the raw candidates leave a certificate open, every
candidate is snapped and scored as well.  Everything else falls back to the
lattice route (``_lattice_verdict``: the maximum of f over the lattice
generated by the V_e, with the Schur test), with the reason in
``diagnostics["fallback_reasons"]``: a gap that stays open, a flow that
breaks down, a weight without the trace identity, a boundary without a
score-0 witness, a split that does not close, a dimension of End that
hangs on the tolerance.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, sqrt
from time import perf_counter

import numpy as np

from . import linalg, linrep, moment
from .errors import (
    LatticeTooLarge,
    NestingViolation,
    NumericalBreakdown,
    RankDeficient,
    WrongShape,
)
from .linrep import DEFAULT_TOL, SubspaceRep, Weight

STABLE = "stable"
POLYSTABLE_NOT_STABLE = "polystable_not_stable"
SEMISTABLE_NOT_POLYSTABLE = "semistable_not_polystable"
UNSTABLE = "unstable"

#: a converged flow certifies ``stable`` when its residual is at most this
#: times lambda_min (see the module docstring)
MARGIN_FACTOR = 0.25
#: a candidate is snapped onto the V_e it meets within this times the
#: tolerance (1e-3 at the default): the flow's plateau leaves a destabilizer
#: up to about 2e-4 off
SNAP_FACTOR = 1e6
#: a snap stops once its pieces lie in K up to this, relative (rounding)
SNAP_EXACT = 1e-14
#: alternating-projection rounds of a snap at most
SNAP_ROUNDS = 100


@dataclass
class StabilityOptions:
    tol: float = DEFAULT_TOL


@dataclass
class StabilityVerdict:
    classification: str
    witness: np.ndarray | None
    methods: tuple[str, ...]
    inconclusive: bool
    best_score: Fraction | None
    trace_identity: bool
    diagnostics: dict = field(default_factory=dict)


class _Fallback(Exception):
    """The flow's certificate does not close; the argument says why."""


@contextmanager
def _timed(times: dict[str, float], method: str):
    """Add the wall time of the block, in ms, to times[method]."""
    t0 = perf_counter()
    try:
        yield
    finally:
        times[method] = times.get(method, 0.0) + (perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# the flow route

def _hessian(p: np.ndarray, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of L on the trace-zero
    matrices at the projector stack p.

    L acts on all complex d0 x d0 matrices, self-adjoint for the Frobenius
    product and commuting with x -> x*, so its spectrum there is that on
    the Hermitian matrices; the eigenvectors are row-major vec(x).  The
    identity is an exact zero of L; shifting it to sum chi + 1, above the
    norm sum chi of L, leaves the d0^2 - 1 trace-zero eigenvalues first.
    """
    d0 = p.shape[1]
    s = np.tensordot(chi, p, axes=1)
    eye = np.eye(d0)
    # row-major vec(a x b) = (a kron b^T) vec(x); the last term is
    # sum_e chi_e P_e kron P_e^T, entry [(i, l), (j, k)] = P[i, j] P[k, l]
    quad = np.tensordot(chi[:, None, None] * p, p, axes=(0, 0)).transpose(0, 3, 1, 2)
    lmat = np.kron(s, eye) + np.kron(eye, s.T) - 2 * quad.reshape(d0 * d0, d0 * d0)
    u = eye.reshape(-1) / sqrt(d0)
    values, vectors = np.linalg.eigh(lmat + (chi.sum() + 1) * np.outer(u, u))
    return values[:-1], vectors[:, :-1]


def _hermitian(v: np.ndarray, d0: int) -> np.ndarray:
    """The Hermitian matrix on the line of a (possibly rotated) eigenvector
    of L: the larger of its Hermitian and skew-Hermitian parts."""
    x = v.reshape(d0, d0)
    a, b = x + x.conj().T, 1j * (x - x.conj().T)
    return a if np.linalg.norm(a) >= np.linalg.norm(b) else b


def _flag(g: np.ndarray, h: np.ndarray, top: bool = True) -> list[np.ndarray]:
    """Orthonormal bases of g^-1 E_k, E_k the span of the k top (or
    bottom) eigenvectors of the Hermitian h, k = 1 .. d0 - 1; one QR of
    g^-1 E_(d0) gives all of them."""
    vecs = np.linalg.eigh(h)[1]
    q = np.linalg.qr(np.linalg.solve(g, vecs[:, ::-1] if top else vecs))[0]
    return [q[:, :k] for k in range(1, len(h))]


def _snap(rep: SubspaceRep, q: np.ndarray, tol: float) -> np.ndarray:
    """q moved onto the nearest subspace K that contains the pieces it
    nearly meets.  The pieces are V_e /\\ q at the loose tolerance
    SNAP_FACTOR tol, of dimensions m_e; K has the dimension k of their sum
    at that tolerance.  A piece is fixed to the intersection, at tol, of
    every V_f that contains it at the loose tolerance when that
    intersection has the piece's dimension: an exact member of the lattice
    of the V_e.  The other pieces move by alternating projections: K is
    the span of the k top left singular vectors of all pieces side by
    side, and each moving piece the m_e-dimensional subspace of its V_e
    nearest to K, until the pieces lie in K up to rounding (SNAP_EXACT; at
    most SNAP_ROUNDS rounds).  A subspace the flow leaves near a
    destabilizer comes out as that destabilizer."""
    loose = SNAP_FACTOR * tol
    spans = [rep.spans[e] for e in rep.poset.elements]
    fixed, moving = [], []
    for v in spans:
        piece = linalg.subspace_intersection(v, q, loose)
        if not piece.shape[1]:
            continue
        meet = v
        for u in spans:
            if u is not v and linalg.inclusion_residual(piece, u) <= loose:
                meet = linalg.subspace_intersection(meet, u, tol)
        if meet.shape[1] == piece.shape[1]:
            fixed.append(meet)
        else:
            moving.append((v, piece))
    if not fixed and not moving:
        return q
    u, sv, _ = np.linalg.svd(np.hstack(fixed + [p for _, p in moving]), full_matrices=False)
    k = int(np.count_nonzero(sv > loose * sv[0]))
    for _ in range(SNAP_ROUNDS):
        if k == len(sv) or sv[k] <= SNAP_EXACT * sv[0]:
            break
        parts = list(fixed)
        for v, piece in moving:
            near = np.linalg.svd(v.conj().T @ u[:, :k], full_matrices=False)[0]
            parts.append(v @ near[:, : piece.shape[1]])
        u, sv, _ = np.linalg.svd(np.hstack(parts), full_matrices=False)
    return u[:, :k]


def _scores(
    rep: SubspaceRep, score: linrep._Scorer, bases: list[np.ndarray], snap: bool
) -> list[tuple[int, np.ndarray]]:
    """Score numerator and basis of every candidate with a clean rank
    guard.  A candidate whose guard fails is snapped (``_snap``) and scored
    again; with ``snap`` every candidate is snapped.  Candidates whose
    guard still fails, or that snap to no proper subspace, are left out."""
    d0, tol = rep.ambient_dim, score.tol
    out = []
    for q, (num, guard) in zip(bases, score(bases)):
        if snap or not guard:
            q = _snap(rep, q, tol)
            num, guard = score([q])[0] if 0 < q.shape[1] < d0 else (0, False)
        if guard:
            out.append((num, q))
    return out


def _hull(points: dict[int, int], d0: int) -> list[tuple[int, int]]:
    """Upper concave hull of (0, 0), the points (k, numerator) and (d0, 0),
    left to right."""
    hull: list[tuple[int, int]] = []
    for pt in sorted({0: 0, **points, d0: 0}.items()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) < 0:
                break
            hull.pop()
        hull.append(pt)
    return hull


def _unstable_route(rep, w, score, g, mu, residual, diagnostics):
    """The plateau certificate: the flag of mu(g)'s top eigenspaces, its
    dual bound, the gap to the residual and the HN type; with the raw flag
    first and, when that leaves the certificate open, with every member
    snapped as well."""
    flag = _flag(g, mu)
    # the best candidate of each dimension (a snapped one may be smaller
    # than its place in the flag)
    at: dict[int, tuple[int, np.ndarray]] = {}
    for snap in (False, True):
        for num, q in _scores(rep, score, flag, snap):
            k = q.shape[1]
            if k not in at or num > at[k][0]:
                at[k] = (num, q)
        try:
            return _plateau_certificate(rep, w, score, at, residual, diagnostics)
        except _Fallback:
            if snap:
                raise


def _plateau_certificate(rep, w, score, at, residual, diagnostics):
    """Unstable with the largest score of all subspaces, from the hull of
    the candidates' points, or _Fallback; the HN type when the hull is
    certified to be the HN polygon."""
    d0, den = rep.ambient_dim, score.den
    hull = _hull({k: num for k, (num, _) in at.items()}, d0)
    d2 = sum(Fraction((y1 - y0) ** 2, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:]))
    d2 /= den * den
    diagnostics["dual_bound"] = sqrt(d2)
    diagnostics["gap"] = residual - sqrt(d2)
    best = max(hull[1:-1], key=lambda pt: pt[1], default=None)
    if best is None or best[1] <= 0:
        raise _Fallback("no_destabilizer")
    # candidates of different places need not be nested; the bound needs a
    # filtration
    chain = [at[k][1] for k, _ in hull[1:-1]]
    if any(linalg.inclusion_residual(a, b) > score.tol for a, b in zip(chain, chain[1:])):
        raise _Fallback("flag_not_nested")
    excess = residual * residual - float(d2)
    if excess < -1e-9 * residual * residual:
        raise _Fallback("dual_above_residual")
    if excess >= 4 / (den * den * d0):
        raise _Fallback("gap_open")
    if excess < 1 / (den * den * lcm(*range(1, d0 + 1))):
        sigma = w.slope(rep)
        diagnostics["hn_dims"] = [x1 - x0 for (x0, _), (x1, _) in zip(hull, hull[1:])]
        diagnostics["hn_slopes"] = [str(sigma + Fraction(y1 - y0, den * (x1 - x0)))
                                    for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    return "flow_unstable", UNSTABLE, at[best[0]][1], Fraction(best[1], den), False


def _classify_summands(summands, w, opts, diagnostics):
    """King's rule on the direct summands of a split: the sum is
    ``polystable_not_stable`` when every summand is (poly)stable and
    ``semistable_not_polystable`` when every summand is semistable; None
    otherwise.  Each summand is classified on its own, and
    ``diagnostics["summands"]`` gets its dims, classification and route.
    The second value says whether any summand's verdict is inconclusive."""
    verdicts = [stability_check(s, w, opts) for s in summands]
    diagnostics["summands"] = [
        {"dims": list(s.dim_vector()), "classification": v.classification,
         "route": v.diagnostics["route"]}
        for s, v in zip(summands, verdicts)
    ]
    classes = {v.classification for v in verdicts}
    if classes <= {STABLE, POLYSTABLE_NOT_STABLE}:
        classification = POLYSTABLE_NOT_STABLE
    elif classes <= {STABLE, POLYSTABLE_NOT_STABLE, SEMISTABLE_NOT_POLYSTABLE}:
        classification = SEMISTABLE_NOT_POLYSTABLE
    else:
        classification = None
    return classification, any(v.inconclusive for v in verdicts)


def _split_route(rep, w, opts, score, g, ends, diagnostics):
    """Split along a generic endomorphism and classify every summand."""
    pieces = linrep.generic_split(rep, ends, opts.tol)
    if pieces is None:
        raise _Fallback("split_failed")
    # each summand in the frame of the limit, g B = Q R: R maps it onto the
    # restricted, nearly orthoscalar system, where its own flow starts
    classification, inconclusive = _classify_summands(
        [piece.transformed(np.linalg.qr(g @ block)[1], opts.tol) for block, piece in pieces],
        w, opts, diagnostics)
    if classification is None:
        raise _Fallback("summand_not_semistable")
    witness = pieces[0][0]
    num, guard = score([witness])[0]
    if num != 0 or not guard:
        raise _Fallback("split_failed")
    return "flow_split", classification, witness, Fraction(0), inconclusive


def _flow_route(rep, w, opts, diagnostics, times):
    """Route, classification, witness, best score and inconclusive flag
    from the flow limit; raises _Fallback when no certificate closes."""
    d0 = rep.ambient_dim
    with _timed(times, "flow"):
        try:
            _, report = moment.kempf_ness_flow(rep, w)
        except NumericalBreakdown:
            raise _Fallback("flow_breakdown") from None
    diagnostics.update(flow_status=report.status, flow_iterations=report.iterations,
                       residual=report.residual)
    score = linrep._Scorer(rep, w, opts.tol)
    mmap = moment._MomentMap(rep, w)
    if report.status != "converged":
        return _plateau_route(rep, w, opts, score, mmap, report, diagnostics, times)

    g, residual = report.final_metric, report.residual
    diagnostics.update(hn_dims=[d0], hn_slopes=[str(w.slope(rep))])
    with _timed(times, "schur"):
        ends, end_guard = linrep._endomorphisms(rep, opts.tol)
    diagnostics["end_dim"] = len(ends)
    if not end_guard:
        raise _Fallback("rank_guard")
    with _timed(times, "hessian"):
        values, vectors = _hessian(mmap(g)[0], mmap.chi)
    # the least dual bound a positive score can give, f sqrt(d0 / (k (d0 - k)))
    # at f = 1 / den and k = d0 / 2; the residual must stay below it
    floor = 2 / (score.den * sqrt(d0))
    diagnostics["dual_bound"] = floor
    diagnostics["gap"] = residual - floor
    if d0 == 1:
        return "flow_stable", STABLE, None, None, False
    diagnostics["lambda_min"] = float(values[0])
    if residual >= floor:
        raise _Fallback("semistability_uncertified")
    if len(ends) > 1:
        with _timed(times, "split"):
            return _split_route(rep, w, opts, score, g, ends, diagnostics)
    if residual <= MARGIN_FACTOR * values[0]:
        return "flow_stable", STABLE, None, None, False
    with _timed(times, "candidates"):
        h = _hermitian(vectors[:, 0], d0)
        bases = _flag(g, h) + _flag(g, h, top=False)
        for snap in (False, True):
            scored = _scores(rep, score, bases, snap)
            if any(num > 0 for num, _ in scored):
                break  # contradicts the semistability certificate
            zero = next((q for num, q in scored if num == 0), None)
            if zero is not None:
                return "flow_boundary", SEMISTABLE_NOT_POLYSTABLE, zero, Fraction(0), False
    raise _Fallback("no_zero_witness")


def _plateau_route(rep, w, opts, score, mmap, report, diagnostics, times):
    """The plateau's certificate at the flow's final metric and, when a
    positive score leaves the gap open (the stall test can stop a plateau
    well above the HN norm), once more after one more run of the flow from
    that metric."""
    g = report.final_metric
    with _timed(times, "candidates"):
        try:
            return _unstable_route(rep, w, score, g, mmap(g)[1], report.residual, diagnostics)
        except _Fallback as reason:
            if str(reason) != "gap_open":
                raise
    with _timed(times, "flow"):
        try:
            _, more = moment.kempf_ness_flow(rep.transformed(g, opts.tol), w)
        except (NumericalBreakdown, RankDeficient, NestingViolation):
            raise _Fallback("gap_open") from None
    g = more.final_metric @ g
    diagnostics.update(flow_status=more.status, residual=more.residual,
                       flow_iterations=report.iterations + more.iterations)
    with _timed(times, "candidates"):
        return _unstable_route(rep, w, score, g, mmap(g)[1], more.residual, diagnostics)


def stability_check(
    rep: SubspaceRep, w: Weight, opts: StabilityOptions | None = None
) -> StabilityVerdict:
    """Classify the representation for the given weight.

    The Kempf-Ness flow runs first, and the verdict is read off its limit
    with the certificate of one of the routes of the module docstring;
    ``diagnostics["route"]`` names it (``flow_stable``, ``flow_split``,
    ``flow_boundary``, ``flow_unstable``).  When no certificate closes, the
    lattice route decides (``route`` is ``lattice``, and
    ``fallback_reasons`` says why: ``no_trace_identity``,
    ``flow_breakdown``, ``no_destabilizer``, ``flag_not_nested``,
    ``gap_open``, ``dual_above_residual``, ``no_zero_witness``,
    ``split_failed``, ``summand_not_semistable``,
    ``semistability_uncertified`` or ``rank_guard``).  ``methods`` lists
    ``flow`` first whenever the flow ran.

    ``best_score`` is the largest score of a proper subspace when the route
    certifies it: the witness's score for ``unstable``, 0 for the
    semistable classes, and None for ``stable`` from the flow, which
    scores no subspace.  On a ``stable`` verdict of the lattice route it is
    the best candidate's score, which is not certified to be the maximum
    (see ``_lattice_verdict``).  ``witness`` is a subspace of that score
    (None for ``stable``).  ``diagnostics`` also gives the flow's status, iterations
    and residual, lambda_min, the dimension of End (``end_dim``), the dual
    bound and the gap (residual minus dual bound), the HN type
    (``hn_dims`` and ``hn_slopes``), the dims, classification and route
    of each summand of a split (``summands``), and the wall time of each method in
    ms (``times_ms``: flow, schur, hessian, candidates, split,
    lattice).  ``inconclusive`` is set only by the lattice route (see
    ``_lattice_verdict``), or when the classification of a summand was.

    The verdict "stable" requires the weighted trace identity
    sum chi_e d_e = chi0 d0; without it the flow has no zero to reach and
    the lattice route decides.
    """
    opts = opts or StabilityOptions()
    w.aligned(rep.poset)
    if rep.ambient_dim == 0:
        raise WrongShape("stability of the zero representation is undefined")
    times: dict[str, float] = {}
    diagnostics: dict = {
        "sigma": str(w.slope(rep)), "fallback_reasons": [], "flow_status": None,
        "flow_iterations": None, "residual": None, "lambda_min": None, "end_dim": None,
        "dual_bound": None, "gap": None, "hn_dims": None, "hn_slopes": None,
        "times_ms": times,
    }
    trace_ok = w.trace_identity(rep)
    try:
        if not trace_ok:
            raise _Fallback("no_trace_identity")
        route, classification, witness, best, inconclusive = _flow_route(
            rep, w, opts, diagnostics, times)
    except _Fallback as reason:
        diagnostics["fallback_reasons"].append(str(reason))
        verdict = _lattice_verdict(rep, w, opts)
        verdict.diagnostics.update(
            {k: v for k, v in diagnostics.items() if k not in verdict.diagnostics})
        verdict.diagnostics["times_ms"].update(times)
        verdict.diagnostics["route"] = "lattice"
        if "flow" in times:
            verdict.methods = ("flow",) + verdict.methods
        return verdict
    diagnostics.update(route=route, inconclusive_reasons=[],
                       rank_guard_stable=True)
    return StabilityVerdict(
        classification=classification,
        witness=witness,
        methods=("flow",),
        inconclusive=inconclusive,
        best_score=best,
        trace_identity=trace_ok,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# the lattice route

def _lattice_verdict(
    rep: SubspaceRep, w: Weight, opts: StabilityOptions
) -> StabilityVerdict:
    """The classification by the lattice and the Schur test alone.

    The candidates are the proper members of the lattice generated by the
    V_e (``linrep.subspace_lattice``; exact given the numerically decided
    intersection dimensions), scored in one batch per dimension.  The
    lattice need not hold a maximizer of the score, so on a ``stable``
    verdict ``best_score`` is the best candidate's score, not a certified
    maximum: on five generic 2-planes in C^4 with weight (5/2; 1, ..., 1)
    it is -3 (a plane), while a plane that meets four of them in lines
    scores -1.

    Schur: a stable representation has End = C.  When no candidate reaches
    0 (or the lattice has no proper member, as when every V_e is 0 or V)
    and d0 > 1, the summand embeddings of ``linrep.decompose_full`` are
    scored too; when there are two or more, their scores sum to 0, so one
    of them reaches it.  A best score of 0 with the trace identity is split
    along the same decomposition into indecomposables (computed once per
    verdict): ``polystable_not_stable`` when there are two or more and
    every one is classified (poly)stable on its own
    (``_classify_summands``, as on the split route, with the summands in
    ``diagnostics["summands"]``), else ``semistable_not_polystable`` (an
    indecomposable representation with a score-0 subspace is not
    polystable).  Without the trace identity the verdict is
    ``semistable_not_polystable`` unless a positive score is found.

    When the lattice overflows the default cap of ``subspace_lattice`` (512
    members), the members found before the overflow are scored as a
    complete lattice would be (``diagnostics["lattice_size"]`` is None).  A
    positive best score is a certificate of instability either way, so the
    overflow sets ``inconclusive`` only when the best score is 0 or less.
    ``inconclusive`` is also set when a rank guard fails: for some scored
    K, some [V_e, -K] has a different rank at 0.1*tol, tol or 10*tol, so an
    intersection dimension hangs on the tolerance
    (``diagnostics["rank_guard_stable"]``).
    ``diagnostics["inconclusive_reasons"]`` lists which of these fired, as
    ``rank_guard`` and ``lattice_overflow``; ``lattice_scored`` counts the
    proper members scored and ``lattice_best`` is the best of their scores.
    """
    d0, tol = rep.ambient_dim, opts.tol
    trace_ok = w.trace_identity(rep)
    diagnostics: dict = {"sigma": str(w.slope(rep))}
    times: dict[str, float] = {}

    score = linrep._Scorer(rep, w, tol)
    with _timed(times, "lattice"):
        try:
            members = linrep.subspace_lattice(rep, tol)
            diagnostics["lattice_size"] = len(members)
        except LatticeTooLarge as exc:
            members = exc.members
            diagnostics["lattice_size"] = None
        members = [q for q in members if 0 < q.shape[1] < d0]
        scored = score(members)
        best = score.best(scored, members)
    diagnostics["lattice_scored"] = len(members)
    diagnostics["lattice_best"] = None if best is None else best[0]
    guard_ok = all(g for _, g in scored)

    dec = None
    if (best is None or best[0] < 0) and d0 > 1:
        with _timed(times, "schur"):
            dec = linrep.decompose_full(rep, tol=tol)
        if len(dec.embeddings) > 1:
            summand_scored = score(dec.embeddings)
            guard_ok = guard_ok and all(g for _, g in summand_scored)
            top = score.best(summand_scored, dec.embeddings)
            if best is None or top[0] > best[0]:
                best = top
    diagnostics["rank_guard_stable"] = guard_ok
    reasons = [] if guard_ok else ["rank_guard"]
    if diagnostics["lattice_size"] is None and (best is None or best[0] <= 0):
        reasons.append("lattice_overflow")
    diagnostics["inconclusive_reasons"] = reasons

    witness: np.ndarray | None = None
    if best is not None and best[0] > 0:
        classification = UNSTABLE
        witness = best[1]
    elif not trace_ok:
        classification = SEMISTABLE_NOT_POLYSTABLE
        if best is not None and best[0] == 0:
            witness = best[1]
    elif best is not None and best[0] == 0:
        summands = (dec or linrep.decompose_full(rep, tol=tol)).summands
        poly = len(summands) > 1 and _classify_summands(
            summands, w, opts, diagnostics)[0] == POLYSTABLE_NOT_STABLE
        classification = POLYSTABLE_NOT_STABLE if poly else SEMISTABLE_NOT_POLYSTABLE
        witness = best[1]
    else:
        classification = STABLE

    diagnostics["times_ms"] = times
    return StabilityVerdict(
        classification=classification,
        witness=witness,
        methods=("lattice_exact",),
        inconclusive=bool(reasons),
        best_score=None if best is None else best[0],
        trace_identity=trace_ok,
        diagnostics=diagnostics,
    )
