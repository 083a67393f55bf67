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
margin lambda_min.  At a zero of mu that kernel is the Hermitian part of
End, so a margin that survives the way to the zero certifies End = C
without the Schur test.

Each route states its certificate.  A score f(K) (``linrep._Scorer``) is
an integer over the common denominator den = d0 lcm(weight denominators),
so a positive score is at least 1 / den.  Weak duality: for a flag
0 < K_1 < ... < K_m = V with subquotient dimensions n_j and score
increments c_j = f(K_j) - f(K_{j-1}) whose slopes c_j / n_j fall, the
one-parameter subgroup of the flag gives

    |mu(g)|_F >= sqrt(sum_j c_j^2 / n_j)      for every g in the orbit,

with equality in the infimum exactly for the HN filtration (for one step,
f(K) sqrt(d0 / (k (d0 - k)))).  So with r the flow's final residual:

- converged, r below the floor 2 / (den sqrt(d0)) (the least dual bound
  of a positive score; the flow runs to the tolerance 1e-8 times the least
  chi_e below 1, since r scales with the weight and the floor falls with
  it), and one Cholesky of L - s(r) on the trace-zero
  matrices succeeds (``_positive_beyond``): ``stable`` with no Schur test,
  End = C certified and ``lambda_min`` the lower bound
  s(r) = max(16 r, (32 sum_e chi_e r^2 / 9)^(1/3)).  In C^1 the trace-zero
  matrices are {0}, and the Cholesky of the 1 x 1 shifted L certifies
  ``stable`` vacuously, as it should: C^1 has no proper nonzero subspace.
  Why, for d0 > 1: by the next
  bullet, mu has a zero g* = exp(t* y) g, |y|_F = 1, with
  t* <= -ln(1 - 4 r / lambda) / 4 <= r / (lambda - 4 r), lambda the least
  trace-zero eigenvalue of L at g.  For a unit trace-zero Hermitian x,
  <x, L x> = sum_e chi_e |[P_e, x]|_F^2 is the squared norm of the tuple
  (sqrt(chi_e) [P_e, x])_e.  Along the geodesic dP_e/dt = B_e + B_e* with
  B_e = (I - P_e) y P_e, whose eigenvalues spread over 2 |B_e|_op <=
  sqrt(2), since |y|_F^2 >= |B_e|_F^2 + |B_e*|_F^2; so |[dP_e/dt, x]|_F
  <= sqrt(2), and sqrt(lambda) falls by at most sqrt(2 sum chi) t*.  With
  lambda > 16 r, t* <= 4 r / (3 lambda), and lambda^(3/2) >
  (4/3) sqrt(2 sum chi) r keeps L positive on the trace-zero matrices at
  g*.  There End(g* V) is closed under adjoints (an orthoscalar system)
  and its Hermitian part is the kernel of L: so End = C, and the
  representation is polystable and indecomposable, that is stable.  The
  Cholesky runs at s(r) plus the rounding a successful factorization can
  hide, 2 d0^4 eps (sum chi + 1).
  Since the certificate holds at any g with r below the floor, the
  Cholesky runs once per flow run, at its first stop (the loose tolerance
  EARLY = 1e-2, scaled as the full one and kept below the floor), whatever
  its status, when the residual there is below the floor.  On generic
  planes it closes after about 4 iterations, against 7 to reach
  1e-8.  On that route ``residual`` and ``flow_iterations`` are those at
  the first stop, and ``lambda_min`` is s(r) at its residual.  When the
  Cholesky does not certify, the run continues to the full tolerance,
  with the iterates of a run started there (``moment._flow_run``), and the
  bullets below decide from there with the Schur test and the spectrum of
  L; a run that stops short of the loose tolerance (a plateau, or the
  iteration cap) stops there at the full one too, so in C^1, where the
  flow plateaus at once, the Cholesky decides, and no route reads the
  empty trace-zero spectrum.
- converged, dim End = 1 and r <= lambda_min / 4: ``stable``, margin
  lambda_min.  Along a unit geodesic t -> exp(t x) g the second derivative
  h(t) = sum_e chi_e |[P_e(t), x]|_F^2 of the potential obeys
  |h'| <= 4 |x|_op h, because dP_e/dt = [P_e, [P_e, x]] has the norm of
  [P_e, x]; so h(t) >= lambda_min e^(-4t), the derivative of the potential
  along every ray exceeds -r + lambda_min (1 - e^(-4t)) / 4, which turns
  positive once r < lambda_min / 4, and mu has a zero in that ball: the
  representation is polystable, and with End = C stable.  This is the
  full stop's certificate of ``stable``, and no second Cholesky runs
  there: one that succeeded would give lambda_min > s(r) >= 16 r, inside
  this margin, which also holds where lambda_min stays below s(r), as for
  the four lines at lambda = 1e-6 (lambda_min about 4 lambda).  Unlike
  the Cholesky, the margin needs the Schur test to read dim End = 1 at
  the rank tolerance ``tol`` first, in the input's frame: where its rank
  guard fires the verdict is ``uncertified`` (``rank_guard``), and where
  it reads dim End > 1 the split route below decides.  At the
  boundary of the four-line family r / lambda_min tends to 1 / sqrt(8),
  above 1/4.
- converged, dim End > 1: V splits along the generalized eigenspaces of
  a generic element of End (``linrep.generic_split``, the split that
  ``linrep.decompose_full`` recurses on), a linear-side decision.  Every
  summand is moved into the frame of the limit as a subquotient of the
  flag of the blocks' partial sums, the way the HN pieces of a plateau
  are (``_pieces``), where its own flow starts at the restricted, nearly
  orthoscalar system, and classified on its own (``_classify_summands``,
  King's rule).
  ``polystable_not_stable`` when all are (poly)stable, with the first
  summand's embedding as the score-0 witness; the equal slopes are the
  trace identity of each summand, checked exactly.
- converged, dim End = 1, lambda_min not clear of r: semistable, because
  r is below 2 / (den sqrt(d0)), the least dual bound of a positive
  score.  The nested eigenspaces of the near-kernel direction of L, pulled
  back by g^-1 and scored exactly, give a score-0 witness:
  ``semistable_not_polystable`` (indecomposable and not stable).
- plateau (a stall, or a step refused at ``moment.COND_CAP``, so g is
  never more ill-conditioned than the cap) or the iteration cap, with the
  residual not below the floor: the nested top-k eigenspaces of mu(g),
  pulled back by g^-1 and scored exactly, form a flag; the vertices of the
  upper concave hull H of its points (k, f(K_k)) give a filtration
  0 < K_1 < ... < K_m = V with strictly falling slopes sigma + c_j / n_j.
  The HN filtration is the only one whose subquotients are semistable with
  strictly falling slopes (King 1994; Reineke, Invent. Math. 152, 2003).
  So once each subquotient K_j / K_(j-1), moved into the plateau's frame
  (``_pieces``), has a flow at its own slope that converges below its
  least positive dual bound 2 / (den_j sqrt(n_j)), or has slope 0, H is
  the HN polygon: its positive maximum is the largest score of all
  subspaces, ``unstable``, and its pieces are the HN type (``hn_dims``,
  ``hn_slopes``).  A subquotient the flow does not certify is classified
  by ``stability_check`` in its own frame, that of the plateau; its
  destabilizer, lifted into V, scores above H and joins the candidates,
  for at most d0 rounds.  D = |H| and the gap r - D are reported for
  information only.  When no candidate of the flag scores above 0 at a
  stall, the same run continues for one more stall window (a stable class
  near an unstable one can stall on the way; ``moment._flow_run``), and
  the verdict is read off its next stop by the bullets above and this
  one.  A plateau whose last iteration took no step (a step refused at
  COND_CAP included) or a stop at the iteration cap does not move, and
  its verdict stays uncertified (``no_destabilizer``).

A run that stops short of its tolerance with the residual below the floor
2 / (den sqrt(d0)) takes the converged bullets: weak duality certifies
semistability at any g, not only at a limit.

A candidate subspace whose rank guard fails (``linalg.subspace_intersections``:
an intersection dimension changes between 0.1 tol and 10 tol, as when the
flow leaves the planted line of four planes 3e-10 off them) is snapped onto
the V_e it nearly meets (``_snap``) and scored again; one that still fails
takes no part.  When the raw candidates leave a certificate open, every
candidate is snapped and scored as well.  Where no certificate closes, the
verdict is the flow's own reading of the candidates it scored
(``_reading``), route ``uncertified`` and ``inconclusive``, with the reason
in ``diagnostics["inconclusive_reasons"]`` (see ``stability_check``).

A weight without the trace identity sum_e chi_e d_e = chi0 d0 has no zero
of mu to flow to, but semistability does not see chi0: the score
f(K) = sum_e chi_e dim(V_e /\ K) - sigma dim K depends only on the chi_e
and the slope sigma = sum_e chi_e d_e / d0 (King 1994).  chi0 only decides
whether an orthoscalar form exists, the linear-unitary correspondence.  So
such a weight is classified at its slope weight (sigma; chi), which has
the identity, by any of the routes above: ``unstable`` stays, with the
same witness and best score, and every other class reads
``semistable_not_polystable`` (a ``stable`` one with best score None, as
the flow scores no subspace).  sigma = 0 leaves no slope weight; then
every V_e is 0 and every score 0, and the closed form answers
(``zero_slope``): ``semistable_not_polystable`` with best score 0 and a
coordinate line as witness, or with neither in C^1.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import ldexp, lcm, sqrt
from time import perf_counter

import numpy as np

from . import linalg, linrep, moment
from .errors import WrongShape
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
#: the flow runs first to this tolerance, scaled as the full one and kept
#: below the floor, where one Cholesky may already certify ``stable``
EARLY = 1e-2
#: the diagnostics of every verdict besides ``sigma`` and ``summands`` (see
#: ``stability_check``), the ones ``posetrep stability --output json``
#: emits; a key the route did not set is None
DIAGNOSTICS = ("route", "flow_status", "flow_iterations", "flow_trials", "residual",
               "lambda_min", "end_dim", "dual_bound", "gap", "hn_dims", "hn_slopes",
               "inconclusive_reasons", "times_ms")


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
    """The flow's certificate does not close; the argument says why, and
    ``candidates`` holds the (score numerator, basis) pairs the route
    scored on the way."""

    def __init__(self, reason: str, candidates=()):
        super().__init__(reason)
        self.candidates = list(candidates)


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

def _hessian(p: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """L on all complex d0 x d0 matrices at the projector stack p, as a
    d0^2 x d0^2 matrix on row-major vec(x), with the identity shifted.

    L is self-adjoint for the Frobenius product and commutes with
    x -> x*, so its spectrum here is that on the Hermitian matrices.  The
    identity is an exact zero of L; the shift adds sum chi + 1, above the
    norm sum chi of L, on its line, which leaves the d0^2 - 1 trace-zero
    eigenvalues first.
    """
    d0 = p.shape[1]
    s = np.tensordot(chi, p, axes=1)
    idx = np.arange(d0)
    # row-major vec(a x b) = (a kron b^T) vec(x), so L = s kron I + I kron s^T
    # - 2 sum_e chi_e P_e kron P_e^T with s = sum_e chi_e P_e; held as
    # L[i, l, j, k] for row (i, l) and column (j, k), the terms are
    # s[i, j] [l = k], [i = j] s[k, l] and P[i, j] P[k, l].  The last is,
    # for each (i, l), the product of the d0 x n matrix [j, e] of
    # -2 chi_e P_e[i, j] and the n x d0 matrix [e, k] of P_e[k, l]: one
    # batched matmul writes L in this layout.
    left = (-2 * chi[:, None, None] * p).transpose(1, 2, 0)
    lmat = np.matmul(left[:, None], p.transpose(2, 0, 1)[None])
    lmat[:, idx, :, idx] += s
    lmat[idx, :, idx, :] += s.T
    # (sum chi + 1) u u^T with u = vec(I) / sqrt(d0)
    u = 1 / sqrt(d0)
    lmat[idx[:, None], idx[:, None], idx, idx] += (chi.sum() + 1) * (u * u)
    return lmat.reshape(d0 * d0, d0 * d0)


def _spectrum(lmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of L on the trace-zero
    matrices, from the shifted matrix of ``_hessian``."""
    values, vectors = np.linalg.eigh(lmat)
    return values[:-1], vectors[:, :-1]


def _stable_bound(residual: float, chi: np.ndarray) -> float:
    """s(r) = max(16 r, (32 sum chi r^2 / 9)^(1/3)): lambda_min above it at
    the limit keeps L positive on the trace-zero matrices at the zero of mu
    that the residual r puts nearby (see the module docstring)."""
    return max(16 * residual, (32 * float(chi.sum()) * residual**2 / 9) ** (1 / 3))


def _positive_beyond(lmat: np.ndarray, bound: float, chi: np.ndarray) -> bool:
    """Whether L exceeds bound on the trace-zero matrices, from one Cholesky
    of the shifted L less bound plus the rounding a successful Cholesky can
    hide.  A factorization that runs to completion is exact for A + dA with
    |dA| <= n (n + 1) eps |A| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thm 10.3), below 2 n^2 eps (sum chi + 1) for the order
    n = d0^2 and |A| <= sum chi + 1."""
    n = len(lmat)
    rounding = 2 * n * n * np.finfo(float).eps * (float(chi.sum()) + 1)
    shifted = lmat.copy()
    shifted.flat[:: n + 1] -= bound + rounding
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


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


def _unstable_route(rep, w, tol, score, g, mu, residual, diagnostics):
    """The plateau certificate from the flag of mu(g)'s top eigenspaces:
    with the raw flag first and, when that leaves the certificate open,
    with every member snapped as well."""
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
            return _plateau_certificate(rep, w, tol, score, g, at, residual, diagnostics)
        except _Fallback as exc:
            if snap:
                exc.candidates = list(at.values())
                raise


def _pieces(rep, g, chain, tol, failure="piece_unstable"):
    """(u_j, R_jj, K_j / K_(j-1)) for the flag 0 < K_1 < ... < K_m = V of
    the bases ``chain`` (K_1 .. K_(m-1)): u_j the orthonormal complement of
    K_(j-1) in K_j, and the subquotient the V_e /\\ K_j projected onto u_j,
    of rank dim(V_e /\\ K_j) - dim(V_e /\\ K_(j-1)), moved by the block R_jj
    of g [u_1 .. u_m] = Q R into the frame of g.  The one way into the frame
    of the limit: the HN pieces of a plateau's flag, and the summands of a
    split (the flag of the blocks' partial sums, whose subquotients are the
    summands).  Where a rank guard of the V_e /\\ K_j fails, _Fallback
    with the reason ``failure``."""
    d0 = rep.ambient_dim
    u = np.zeros((d0, 0), dtype=complex)
    for kj in chain + [np.eye(d0)]:
        v = np.linalg.svd(kj - u @ (u.conj().T @ kj))[0]
        u = np.hstack([u, v[:, : kj.shape[1] - u.shape[1]]])
    r = np.linalg.qr(g @ u)[1]
    cuts = [0] + [k.shape[1] for k in chain] + [d0]
    # V_e /\ K_j, one batched intersection per span width and proper K_j
    meets = [{e: q[:, :0] for e, q in rep.spans.items()}]
    for k in cuts[1:-1]:
        meets.append({})
        for idx, spans in linrep._width_groups(rep):
            _, guard, bases = linalg.subspace_intersections(spans, u[:, :k], tol)
            if not guard.all():
                raise _Fallback(failure)
            meets[-1].update(zip((rep.poset.elements[i] for i in idx), bases))
    meets.append(rep.spans)
    pieces = []
    for a, b, lo, hi in zip(cuts, cuts[1:], meets, meets[1:]):
        rjj, uj = r[a:b, a:b], u[:, a:b]
        # the top left singular vectors of R_jj u_j* (V_e /\ K_j), one SVD per width
        lefts = linrep._per_width(lambda m: np.linalg.svd(m)[0],
                                  [rjj @ (uj.conj().T @ q) for q in hi.values()])
        spans = {e: v[:, : q.shape[1] - lo[e].shape[1]] for (e, q), v in zip(hi.items(), lefts)}
        pieces.append((uj, rjj, SubspaceRep(rep.poset, b - a, spans)))
    return pieces


def _plateau_certificate(rep, w, tol, score, g, at, residual, diagnostics):
    """Unstable with the largest score of all subspaces and the HN type,
    once every piece of the hull's flag is certified semistable at its own
    slope, or _Fallback.  A piece that is not is classified by
    ``stability_check`` in its own frame, and its destabilizer, lifted
    into V, is one more candidate, for at most d0 rounds."""
    d0, den = rep.ambient_dim, score.den
    den_m, den_s = score.den_scaled
    for _ in range(d0):
        hull = _hull({k: num for k, (num, _) in at.items()}, d0)
        # sum (dy)^2 / dx over one integer denominator; int / int rounds
        # correctly, as float(Fraction) does.  The quotient passes the float
        # range once den passes about 1e154: it is then divided by
        # 4^shift before the root and ldexp restores 2^shift, exact
        # scalings that change no bit of a value whose quotient fits.  den
        # itself divides as den_m 2^den_s (``linrep._float_shift``), which
        # is float(den) wherever den fits a float
        steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
        width = lcm(*(dx for dx, _ in steps))
        total = sum(dy * dy * (width // dx) for dx, dy in steps)
        shift = max(0, (total.bit_length() - width.bit_length() - 1000) // 2)
        dual = ldexp(sqrt(total / (width << 2 * shift)) / den_m, shift - den_s)
        diagnostics.update(dual_bound=dual, gap=residual - dual)
        best = max(hull[1:-1], key=lambda pt: pt[1], default=None)
        if best is None or best[1] <= 0:
            raise _Fallback("no_destabilizer")
        # candidates of different places need not be nested; pieces need a flag
        chain = [at[k][1] for k, _ in hull[1:-1]]
        if any(linalg.inclusion_residual(a, b) > tol for a, b in zip(chain, chain[1:])):
            raise _Fallback("flag_not_nested")
        pieces = _pieces(rep, g, chain, tol)
        for bad, (u, rjj, piece) in enumerate(pieces):
            if not _semistable(piece, w):
                break
        else:
            diagnostics.update(hn_dims=[p.ambient_dim for _, _, p in pieces],
                               hn_slopes=[str(w.slope(p)) for _, _, p in pieces])
            return "flow_unstable", UNSTABLE, at[best[0]][1], Fraction(best[1], den), False
        verdict = stability_check(piece, Weight(w.slope(piece), w.chi), tol)
        if verdict.classification != UNSTABLE:
            raise _Fallback("piece_unstable")
        # K_(j-1) and the piece's destabilizer, pulled back out of the frame of g
        lift = np.hstack([p[0] for p in pieces[:bad]]
                         + [u @ np.linalg.solve(rjj, verdict.witness)])
        for num, q in _scores(rep, score, [np.linalg.qr(lift)[0]], False):
            if q.shape[1] not in at or num > at[q.shape[1]][0]:
                at[q.shape[1]] = (num, q)
    raise _Fallback("piece_unstable")


def _semistable(piece, w):
    """Whether the piece's flow at its slope sigma converges below
    2 / (den sqrt(n)), the least dual bound of a positive score on C^n;
    sigma = 0 (every score is 0) and n = 1 (no proper subspace) are
    semistable outright."""
    sigma = w.slope(piece)
    if sigma == 0 or piece.ambient_dim == 1:
        return True
    pw = Weight(sigma, w.chi)
    floor = linrep._Scorer(piece, pw, DEFAULT_TOL).floor
    return moment.kempf_ness_flow(piece, pw, moment.FlowOptions(floor))[1].status == "converged"


def _classify_summands(summands, w, tol, diagnostics):
    """King's rule on the direct summands of a split: the sum is
    ``polystable_not_stable`` when every summand is (poly)stable and
    ``semistable_not_polystable`` when every summand is semistable; None
    otherwise.  Each summand is classified on its own, and
    ``diagnostics["summands"]`` gets its dims, classification and route.
    The second value says whether any summand's verdict is inconclusive."""
    verdicts = [stability_check(s, w, tol) for s in summands]
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


def _split_route(rep, w, tol, score, g, ends, diagnostics):
    """Split along a generic endomorphism and classify every summand, each
    moved into the frame of the limit by ``_pieces`` (a failing rank guard
    there is ``split_failed``).  The blocks are those of the first of
    ``generic_split``'s draws along which every V_e splits, checked on the
    intersection dimensions alone: the summands are built once, by
    ``_pieces``, whose subquotient dimensions add up to dim V_e whatever
    the blocks."""
    blocks = next(linrep._split_blocks(rep, ends, tol), None)
    if blocks is None:
        raise _Fallback("split_failed")
    # each summand in the frame of the limit, as the subquotient of the flag
    # of the blocks' partial sums, where its own flow starts at the
    # restricted, nearly orthoscalar system
    chain = [np.hstack(blocks[:j]) for j in range(1, len(blocks))]
    pieces = _pieces(rep, g, chain, tol, "split_failed")
    classification, inconclusive = _classify_summands(
        [piece for _, _, piece in pieces], w, tol, diagnostics)
    witness = blocks[0]
    num, guard = score([witness])[0]
    if classification is None or num != 0 or not guard:
        # the summands' embeddings; where their slopes differ, one scores above 0
        raise _Fallback("summand_not_semistable" if classification is None else "split_failed",
                        _scores(rep, score, blocks, False))
    return "flow_split", classification, witness, Fraction(0), inconclusive


def _semistable_diagnostics(rep, floor, diagnostics):
    """The HN type [d0] and the dual bound of a flow that ends below the
    floor (or the gap by which it does not)."""
    diagnostics.update(hn_dims=[rep.ambient_dim], hn_slopes=[diagnostics["sigma"]],
                       dual_bound=floor, gap=diagnostics["residual"] - floor)


def _flow_route(rep, w, tol, score, diagnostics, times):
    """Route, classification, witness, best score and inconclusive flag
    from the flow limit; raises _Fallback when no certificate closes.

    The flow's run stops first at the loose tolerance EARLY (scaled as the
    full tolerance, and kept below the floor), where one Cholesky may
    already certify ``stable``; otherwise the run continues to the full
    tolerance, and every other verdict is read off it.  A stall whose flag
    holds no destabilizer continues the same run for one more stall
    window; at a plateau with no step taken (as at COND_CAP) or at the
    iteration cap the run yields that stop again, and its reading fails as
    the first did.  Every stop's metric is within COND_CAP, so g^-1 is
    read at a trusted condition.  No iterate is taken twice, so
    ``times_ms`` ``flow`` holds one run, and L is built at most once per
    stop, from the stop's own projector stack."""
    d0, floor = rep.ambient_dim, score.floor
    chi = np.array([w._float[e] for e in rep.poset.elements])
    flow = moment.FlowOptions(moment.FlowOptions.tol * w.scale)
    run = moment._flow_run(rep, w, max(min(EARLY * w.scale, floor), flow.tol), flow.max_iter)
    with _timed(times, "flow"):
        projs, mu, report = next(run)
    lmat = None
    # as on every route, no certificate from a residual above the floor; a
    # stop short of the loose tolerance (a plateau, or the iteration cap) is
    # the full stop too, and its Cholesky the run's one
    if report.residual < floor:
        with _timed(times, "hessian"):
            lmat = _hessian(projs, chi)
            bound = _stable_bound(report.residual, chi)
            stable = _positive_beyond(lmat, bound, chi)
        if stable:
            diagnostics.update(flow_status=report.status, flow_iterations=report.iterations,
                               flow_trials=report.attempts, residual=report.residual,
                               end_dim=1, lambda_min=bound)
            _semistable_diagnostics(rep, floor, diagnostics)
            return "flow_stable", STABLE, None, None, False
        if report.status == "converged" and report.residual >= flow.tol:
            lmat = None  # the run moves on from this g
    for continued in (False, True):
        with _timed(times, "flow"):
            projs, mu, report = next(run) if continued else run.send(flow.tol)
        g = report.final_metric
        diagnostics.update(flow_status=report.status, flow_iterations=report.iterations,
                           flow_trials=report.attempts, residual=report.residual)
        if report.status == "converged" or report.residual < floor:
            break
        with _timed(times, "candidates"):
            try:
                return _unstable_route(rep, w, tol, score, g, mu, report.residual, diagnostics)
            except _Fallback as exc:
                if continued or str(exc) != "no_destabilizer":
                    raise

    residual = report.residual
    _semistable_diagnostics(rep, floor, diagnostics)
    if residual >= floor:
        raise _Fallback("semistability_uncertified")
    with _timed(times, "schur"):
        ends, end_guard = linrep._endomorphisms(rep, tol)
    diagnostics["end_dim"] = len(ends)
    if not end_guard:
        raise _Fallback("rank_guard")
    with _timed(times, "hessian"):
        if lmat is None:
            lmat = _hessian(projs, chi)
        values, vectors = _spectrum(lmat)
    diagnostics["lambda_min"] = float(values[0])
    if len(ends) > 1:
        with _timed(times, "split"):
            return _split_route(rep, w, tol, score, g, ends, diagnostics)
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
    raise _Fallback("no_zero_witness", scored)


def _reading(candidates, den):
    """Classification, witness and best score from the scored candidates
    where no certificate closes: ``unstable`` with the best positive score
    (a lower bound on the maximum), else ``semistable_not_polystable`` with
    a score-0 candidate, else ``stable``."""
    num, q = max(candidates, key=lambda c: c[0], default=(-1, None))
    if num < 0:
        return STABLE, None, None
    return UNSTABLE if num > 0 else SEMISTABLE_NOT_POLYSTABLE, q, Fraction(num, den)


def stability_check(rep: SubspaceRep, w: Weight, tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Classify the representation for the given weight.

    The Kempf-Ness flow runs, first to the loose tolerance ``EARLY``,
    where the run's one Cholesky may certify ``stable`` at once (at a stop
    short of it too, below the floor), and else
    the run continues to its full tolerance; the verdict is read off its
    limit with the certificate of one of the routes of the module docstring;
    ``diagnostics["route"]`` names it (``flow_stable``, ``flow_split``,
    ``flow_boundary``, ``flow_unstable``).  When no certificate closes, the
    route is ``uncertified``, the verdict is the flow's own reading from
    the candidates it scored, ``inconclusive`` is set, and
    ``inconclusive_reasons`` says why: ``no_destabilizer``,
    ``flag_not_nested``, ``piece_unstable``, ``no_zero_witness``,
    ``split_failed``, ``summand_not_semistable``,
    ``semistability_uncertified`` or ``rank_guard``.  ``methods`` is
    ``("flow",)`` whenever the flow ran.  ``tol`` is the rank tolerance of
    the scores, the Schur test and the split; the flow's tolerances are its
    own (1e-8 and ``EARLY``, each times ``Weight.scale``).

    ``best_score`` is the largest score of a proper subspace when the route
    certifies it: the witness's score for ``unstable``, 0 for the
    semistable classes, and None for ``stable``, where the flow certifies
    no subspace's score.  On an ``uncertified`` verdict it is the best
    candidate's score, a lower bound on the maximum.  ``witness`` is a
    subspace of that score (None for ``stable``).  ``diagnostics`` also
    gives the flow's status, iterations, step trials and residual, all of
    its one run counted from g = I (those at the first stop where its
    Cholesky certifies ``stable``; else those at the stop read last),
    lambda_min (on ``flow_stable`` certified by the Cholesky at the first
    stop, the lower bound s(r) of the module docstring at that residual;
    else the least trace-zero eigenvalue of L at the full stop, where
    ``stable`` also needs the Schur test at ``tol``), the dimension of End
    (``end_dim``),
    the dual bound and the gap (residual minus dual bound; information
    only), the HN type (``hn_dims`` and ``hn_slopes``, on every
    ``flow_unstable`` verdict), the dims, classification and route of each
    summand of a split (``summands``), and the wall time of each method in
    ms (``times_ms``: flow, schur, hessian, candidates, split; flow and
    hessian alone when the Cholesky certifies ``stable``; flow is one run,
    not repeated after the loose stop, and hessian is one build of L at
    each stop the verdict reads, at most one Cholesky and the spectrum).
    The keys are ``sigma``, ``summands`` (on a split) and ``DIAGNOSTICS``.
    ``inconclusive`` is set on an ``uncertified`` verdict, or when the
    classification of a summand was.

    The verdicts ``stable`` and ``polystable_not_stable`` require the
    weighted trace identity sum chi_e d_e = chi0 d0.  Without it the
    verdict is the one at the slope weight (sigma; chi), the same routes
    and diagnostics, with every class but ``unstable`` read as
    ``semistable_not_polystable`` (best score None where that verdict was
    ``stable``); sigma = 0 has the closed form of the module docstring
    (route ``zero_slope``, no method runs).  ``trace_identity`` is false.
    """
    w.aligned(rep.poset)
    if rep.ambient_dim == 0:
        raise WrongShape("stability of the zero representation is undefined")
    times: dict[str, float] = {}
    sigma = w.slope(rep)
    diagnostics = {"sigma": str(sigma), **dict.fromkeys(DIAGNOSTICS), "times_ms": times}
    if not w.trace_identity(rep):
        return _off_slope(rep, w, sigma, tol, diagnostics)
    score = linrep._Scorer(rep, w, tol)
    try:
        route, classification, witness, best, inconclusive = _flow_route(
            rep, w, tol, score, diagnostics, times)
        reasons = []
    except _Fallback as exc:
        route, inconclusive, reasons = "uncertified", True, [str(exc)]
        classification, witness, best = _reading(exc.candidates, score.den)
    diagnostics.update(route=route, inconclusive_reasons=reasons)
    return StabilityVerdict(
        classification=classification,
        witness=witness,
        methods=("flow",),
        inconclusive=inconclusive,
        best_score=best,
        trace_identity=True,
        diagnostics=diagnostics,
    )


def _off_slope(rep, w, sigma, tol, diagnostics):
    """The verdict for a weight without the trace identity: the one at the
    slope weight (sigma; chi), with every class but ``unstable`` read as
    ``semistable_not_polystable``; at sigma = 0 the closed form."""
    if sigma > 0:
        verdict = stability_check(rep, Weight(sigma, w.chi), tol)
        if verdict.classification != UNSTABLE:
            verdict.classification = SEMISTABLE_NOT_POLYSTABLE
        verdict.trace_identity = False
        return verdict
    # every V_e is 0, so every score is 0
    d0 = rep.ambient_dim
    diagnostics.update(route="zero_slope", inconclusive_reasons=[])
    return StabilityVerdict(
        classification=SEMISTABLE_NOT_POLYSTABLE,
        witness=np.eye(d0, 1, dtype=complex) if d0 > 1 else None,
        methods=(),
        inconclusive=False,
        best_score=Fraction(0) if d0 > 1 else None,
        trace_identity=False,
        diagnostics=diagnostics,
    )
