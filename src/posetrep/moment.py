"""Moment maps for weighted projection systems and the Kempf-Ness flow.

For a subspace representation with weight chi the moment map at a metric
g in GL(V) is

    mu(g) = sum_e chi_e P_{g V_e} - chi0 I.

A zero of mu on the GL-orbit of the representation is an orthoscalar system:
Hermitian idempotents of the prescribed ranks, nested along the poset
(P_i P_j = P_j P_i = P_i for i < j), summing with weights to chi0 I.  mu is
the gradient of the Kempf-Ness potential, which is geodesically convex
along g <- exp(t x) g, and its Hessian is
L(x) = sum_e chi_e (x P_e + P_e x - 2 P_e x P_e).  The flow takes damped
Newton steps: x solves L(x) = -mu inexactly by conjugate gradients, one
batched product over the projector stack per CG step, to a relative
accuracy that tightens from 1/2 to 1/10 once full steps halve the residual.
The damping starts from twice the last accepted step, so a run of short
steps does not search down from 1 every time, and it is tested on the
squared residual F(g) = ||mu(g)||_F^2, which falls quadratically near a
zero.  The infimum of F over the orbit is zero exactly on the semistable
classes, and it is attained (by an orthoscalar representative) exactly
on the polystable ones.  So a converged run
certifies polystability only while the metric condition number stays
bounded: a condition that keeps growing as the residual falls means the
flow is approaching the boundary of the orbit, as it does for strictly
semistable classes (the four lines at lambda in {0, 1, inf}, which still
reach the default tolerance in about 19 steps).  On an unstable class the
residual stalls above the norm of the Harder-Narasimhan type while the
metric degenerates, and the flow stops with a plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CheckFailed,
    NoTraceIdentity,
    SingularMetric,
    WrongShape,
)
from .linrep import SubspaceRep, Weight, _width_groups, make_rep
from .poset import Poset


@dataclass
class ProjectionSystem:
    """Weighted family of Hermitian projections indexed by a poset."""

    poset: Poset
    weight: Weight
    projections: dict[str, np.ndarray]
    ranks: dict[str, int]

    @property
    def ambient_dim(self) -> int:
        for p in self.projections.values():
            return p.shape[0]
        return 0

    def subspace_rep(self, tol: float = 1e-8) -> SubspaceRep:
        """Representation spanned by the projection ranges: for each P_e the
        eigenvectors of its rank_e largest eigenvalues, from one ``eigh``
        batched over the projections."""
        elements = self.poset.elements
        spans = {}
        if elements:
            _, vecs = np.linalg.eigh(np.stack([self.projections[e] for e in elements]))
            # eigh sorts ascending, so the range is spanned by the last columns
            spans = {e: v[:, ::-1][:, : self.ranks[e]] for e, v in zip(elements, vecs)}
        return make_rep(self.poset, self.ambient_dim, spans, tol=tol)

    def sphere_coordinates(self) -> tuple[float, float, float]:
        """(tr(P1 P4), tr(P1 P3), tr(P1 P2)) over the first four elements;
        see :func:`fourspace_parameters`."""
        e1, e2, e3, e4 = self.poset.elements
        p1 = self.projections[e1]
        return tuple(float(np.trace(p1 @ self.projections[e]).real) for e in (e4, e3, e2))


class CheckReport:
    """Worst-case violations of the orthoscalar conditions."""

    def __init__(self, hermitian, idempotent, rank_dev, nesting, scalar, tol):
        self.hermitian = hermitian
        self.idempotent = idempotent
        self.rank_deviation = rank_dev
        self.nesting = nesting
        self.scalar = scalar
        self.tol = tol

    @property
    def passed(self) -> bool:
        worst = max(
            self.hermitian, self.idempotent, self.rank_deviation, self.nesting, self.scalar
        )
        return bool(worst < self.tol)

    def as_dict(self) -> dict:
        return {
            "hermitian": self.hermitian,
            "idempotent": self.idempotent,
            "rank_deviation": self.rank_deviation,
            "nesting": self.nesting,
            "scalar": self.scalar,
            "tol": self.tol,
            "passed": self.passed,
        }

    def __repr__(self) -> str:
        return f"CheckReport({self.as_dict()})"


def orthoscalar_check(ps: ProjectionSystem, tol: float = 1e-8) -> CheckReport:
    """Measure how far the system is from orthoscalar.

    Reports the worst violation of Hermitian symmetry, idempotency, the
    prescribed ranks (via traces), nesting P_i P_j = P_j P_i = P_i along the
    order, and the weighted scalar identity sum chi_e P_e = chi0 I.
    """
    ps.weight.aligned(ps.poset)
    elements, pairs = ps.poset.elements, ps.poset.pairs
    n, d0 = len(elements), ps.ambient_dim
    mats = [linalg.as_complex(ps.projections[e]) for e in elements]
    for e, p in zip(elements, mats):
        if p.shape != (d0, d0):
            raise WrongShape(f"projection for {e!r} has shape {p.shape}")
    stack = np.array(mats, dtype=complex).reshape(n, d0, d0)

    def worst(m: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(m, axis=(1, 2)), initial=0.0))

    nesting = 0.0
    if pairs:
        index = {e: k for k, e in enumerate(elements)}
        lower = stack[[index[a] for a, _ in pairs]]
        upper = stack[[index[b] for _, b in pairs]]
        nesting = max(worst(lower @ upper - lower), worst(upper @ lower - lower))
    ranks = np.array([ps.ranks[e] for e in elements], dtype=float)
    chi = np.array([float(ps.weight.chi[e]) for e in elements])
    scalar = chi @ stack.reshape(n, d0 * d0) - float(ps.weight.chi0) * np.eye(d0).ravel()
    return CheckReport(
        worst(stack - stack.conj().transpose(0, 2, 1)),
        worst(stack @ stack - stack),
        float(np.max(np.abs(np.trace(stack, axis1=1, axis2=2).real - ranks), initial=0.0)),
        nesting,
        float(np.linalg.norm(scalar)),
        tol,
    )


class _MomentMap:
    """mu(g) = sum_e chi_e P_{g V_e} - chi0 I for one representation and
    weight: lines in closed form, one batched QR per wider span width.

    The projectors come as one (n, d0, d0) stack in poset order, one group
    of elements of equal width (``linrep._width_groups``) at a time.  A line
    has P = v v* / |v|^2 with v = g V_e, batched over the group.  A wider
    span has P = Q Q*, with Q from one QR of g V_e batched over the group.
    Along the flow g is invertible with bounded condition, so g V_e keeps
    the column rank of V_e and no rank cut is needed; the Gram route
    M (M* M)^-1 M* would square the condition number, while for a line
    |v|^2 is a sum of squares and loses nothing.  Width-0 elements have the
    zero projector.

    ``scale`` = min(1, least chi_e) is the scale of the weight
    (``Weight.scale``), which the Newton direction's forcing term measures
    mu against, and ``floor`` the curvature per unit |x|^2 below the
    rounding noise of R_e, where a direction reads as flat.
    """

    def __init__(self, rep: SubspaceRep, w: Weight):
        elements = rep.poset.elements
        d0 = rep.ambient_dim
        self.rep = rep
        self.weight = w
        self.chi = np.array([float(w.chi[e]) for e in elements])
        self.shift = -float(w.chi0) * np.eye(d0, dtype=complex)
        self.groups = [(idx, stack) for idx, stack in _width_groups(rep) if stack.shape[2]]
        self.scale = w.scale
        self.floor = float(np.sum(self.chi)) * (16 * d0 * np.finfo(float).eps) ** 2

    def __call__(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The projector stack and mu(g)."""
        n, d0 = len(self.chi), len(self.shift)
        p = np.zeros((n, d0, d0), dtype=complex)
        for idx, stack in self.groups:
            v = g @ stack
            if stack.shape[2] == 1:
                vh = v.conj().swapaxes(1, 2)
                p[idx] = (v @ vh) / (vh @ v).real
            else:
                q = np.linalg.qr(v)[0]
                p[idx] = q @ q.conj().swapaxes(1, 2)
        # sum_e chi_e P_e as one vector-matrix product
        return p, (self.chi @ p.reshape(n, d0 * d0)).reshape(d0, d0) + self.shift

    def hessian(self, p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
        """L(x) = sum_e chi_e (R_e + R_e*) with R_e = (I - P_e) x P_e, the
        Hessian of the Kempf-Ness potential (the derivative of mu along
        g <- exp(t x) g) applied to a Hermitian x, and the curvature
        <x, L(x)> = 2 sum_e chi_e |R_e|_F^2, summed from squares so that it
        stays accurate where L is nearly singular."""
        xp = x @ p
        r = xp - p @ xp
        cr = self.chi[:, None, None] * r
        s = cr.sum(0)
        return s + s.conj().T, 2.0 * _inner(r, cr)

    def system(self, p: np.ndarray) -> ProjectionSystem:
        """The projections keyed in poset order."""
        rep = self.rep
        return ProjectionSystem(
            rep.poset, self.weight, dict(zip(rep.poset.elements, p)), rep.dims()
        )


def _checked_moment(
    rep: SubspaceRep, g: np.ndarray, w: Weight
) -> tuple[_MomentMap, np.ndarray, np.ndarray]:
    w.aligned(rep.poset)
    g = linalg.as_complex(g)
    if g.shape != (rep.ambient_dim, rep.ambient_dim):
        raise WrongShape(f"metric has shape {g.shape}, ambient is {rep.ambient_dim}")
    if linalg.condition_number(g) > 1e14:
        raise SingularMetric("metric is numerically singular")
    mmap = _MomentMap(rep, w)
    return (mmap, *mmap(g))


def moment_value(rep: SubspaceRep, g: np.ndarray, w: Weight) -> np.ndarray:
    """mu(g) = sum_e chi_e P_{g V_e} - chi0 I, a traceless Hermitian matrix
    whenever the trace identity holds."""
    return _checked_moment(rep, g, w)[2]


def kn_directional_derivative(
    rep: SubspaceRep, g: np.ndarray, w: Weight, h: np.ndarray
) -> float:
    """Derivative of F(exp(t h) g) = ||mu||_F^2 at t = 0, for Hermitian h.

    Equals 2 Re tr(mu L(h)) with L the Hessian of ``_MomentMap.hessian``.
    """
    mmap, p, mu = _checked_moment(rep, g, w)
    lh, _ = mmap.hessian(p, linalg.as_complex(h))
    return 2.0 * _inner(mu, lh)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a* b), the real inner product on Hermitian matrices."""
    return float(np.vdot(a, b).real)


#: Armijo constant of the backtracking test
ARMIJO_C = 0.1
#: damped trials per iteration; the damping halves after each rejection
MAX_TRIALS = 40
#: trust region of the Newton direction: |x|_F <= MAX_STEP
MAX_STEP = 10.0
#: stall: plateau when the residual has not fallen below STALL_FACTOR times
#: its value STALL_WINDOW iterations earlier
STALL_WINDOW = 20
STALL_FACTOR = 0.5
#: largest metric condition number: a run whose metric passes it stops
#: with a plateau, whatever its residual reads.  The flow carries an upper
#: bound on the condition instead of computing it, and takes the exact one
#: (one SVD) only once the bound passes COND_CAP / 2 or is not finite, so
#: the stop is always decided on an exact condition
COND_CAP = 1e12


@dataclass
class FlowOptions:
    tol: float = 1e-8
    max_iter: int = 20000


@dataclass
class FlowReport:
    status: str  # converged | plateau | max_iter
    iterations: int
    attempts: int  # step trials, accepted or not, over all iterations
    hvp: int  # Hessian-vector products over all iterations
    residual: float
    gradient_norm: float
    step: float  # last accepted damping t in (0, 1]; 0 when none was accepted
    condition: float
    history: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)  # accepted t per iteration, 0 when none
    trials: list[int] = field(default_factory=list)  # step trials per iteration
    hvps: list[int] = field(default_factory=list)  # Hessian-vector products per iteration
    final_metric: np.ndarray | None = None

    def as_dict(self) -> dict:
        from .fileio import format_complex_rows

        metric = None
        if self.final_metric is not None:
            metric = format_complex_rows(self.final_metric)
        return {
            "status": self.status,
            "iterations": self.iterations,
            "attempts": self.attempts,
            "hvp": self.hvp,
            "residual": self.residual,
            "gradient_norm": self.gradient_norm,
            "step": self.step,
            "condition": self.condition,
            "history": list(self.history),
            "steps": list(self.steps),
            "trials": list(self.trials),
            "hvps": list(self.hvps),
            "final_metric": metric,
        }


def _newton_direction(
    mmap: _MomentMap, p: np.ndarray, mu: np.ndarray, eta: float = 0.5
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Conjugate gradients on L(x) = -mu over Hermitian x, from x = 0.

    Stops once |L(x) + mu| <= min(eta, sqrt(|mu| / c)) |mu| (an inexact
    Newton step whose accuracy grows as mu shrinks; the flow's forcing term
    eta is 1/10 once its Newton steps converge and 1/2 before) or after
    d0^2 products (the real dimension of the Hermitian matrices).  The
    scale c = min(1, least chi_e) (``Weight.scale``) makes the test
    invariant under scaling the weight, under which x does not change, and
    leaves it as it was for weights of at least 1.  It also
    stops, keeping the current x, before a direction of no curvature or a
    step that would leave the trust region |x|_F <= MAX_STEP: when mu has a
    part along the flat stabilizer directions (a direct sum of unequal
    slopes) that part cannot be solved for, and CG would otherwise run off
    along it.  A first step that leaves the region is cut to its boundary
    instead, so the direction is zero only when mu meets no curvature at
    all.  Returns x, L(x), the squared gradient norm
    4 sum_e chi_e |(I - P_e) mu P_e|_F^2 (twice the curvature along mu,
    read off the first product) and the number of products.
    """
    d0 = len(mu)
    x = np.zeros_like(mu)
    lx = np.zeros_like(mu)
    r = -0.5 * (mu + mu.conj().T)
    d = r.copy()
    rr = _inner(r, r)
    norm = np.sqrt(rr)
    target = min(eta, np.sqrt(norm / mmap.scale)) * norm
    grad_sq = 0.0
    for k in range(d0 * d0):
        ld, curvature = mmap.hessian(p, d)
        dd = _inner(d, d)
        if k == 0:
            grad_sq = 2.0 * curvature
        if curvature <= mmap.floor * dd:
            break
        a = rr / curvature
        x_next = x + a * d
        if _inner(x_next, x_next) > MAX_STEP * MAX_STEP:
            if k == 0:
                a = MAX_STEP / np.sqrt(dd)
                x, lx = a * d, a * ld
            break
        x = x_next
        lx += a * ld
        r -= a * ld
        rr_next = _inner(r, r)
        if np.sqrt(rr_next) <= target:
            break
        d = r + (rr_next / rr) * d
        rr = rr_next
    return x, lx, grad_sq, k + 1


def kempf_ness_flow(
    rep: SubspaceRep, w: Weight, opts: FlowOptions | None = None
) -> tuple[ProjectionSystem | None, FlowReport]:
    """Minimize F = ||mu||_F^2 over the orbit by damped Newton steps
    g <- exp(t x) g from g = I.

    The direction x is an inexact Newton step on the Kempf-Ness potential:
    conjugate gradients on L(x) = -mu, with L the Hessian of
    ``_MomentMap.hessian``, each product a few batched matmuls over the
    projector stack (see ``_newton_direction``).  Its forcing term eta is
    1/10 after a full step (t = 1) that at least halved the residual, where
    Newton has taken hold, and 1/2 otherwise (Eisenstat and Walker, SIAM J.
    Sci. Comput. 17, 1996); |mu| enters the forcing relative to the scale
    min(1, least chi_e) of the weight, so a weight and its multiples take
    the same steps and residuals in proportion (with tol scaled alike).
    The damping t must pass the Armijo test
    F(t) < F + ARMIJO_C t s, with the slope s = 2 Re tr(mu L(x)) (about
    -2F, so F falls quadratically near a zero of mu).  The first trial is
    at t = min(1, 2 t_prev), t_prev the last accepted step (1 in the first
    iteration).  A first trial that fails halves t until the test holds.
    One below 1 that holds doubles t while the test holds, up to 1, and
    the largest t that held is taken; but after an iteration that had to
    halve, the first trial is taken as it is.  Otherwise, on the plateau
    of an unstable input, the accepted steps swing between about 1/16 and
    1/64 and each iteration makes three to four trials, against about two.
    A run whose steps all hold at 1/2 or more takes full steps only.  An
    iteration makes at most MAX_TRIALS trials.

    The run has one stop test, taken before each iteration, in this order:
    plateau when the metric condition number passes COND_CAP (the metric
    degenerates, as on an unstable class), even where the residual reads
    below tol: a residual read at a metric that near the boundary of the
    orbit certifies no orthoscalar limit; converged when the residual is
    below tol; plateau when the last iteration accepted no trial or left
    the residual above STALL_FACTOR times its value STALL_WINDOW iterations
    earlier; max_iter after max_iter iterations.  ``iterations`` is the
    number of iterations taken.  The weighted trace identity is required up
    front (NoTraceIdentity).

    Each step trial costs one Hermitian exponential and one moment-map
    evaluation (lines in closed form and one batched QR per wider span
    width, see ``_MomentMap``), and no SVD.  x is traceless, so |det g|
    stays 1 and g is not normalized along the run.  x is Hermitian, so
    cond(exp(t x)) = e^{t (lmax - lmin)} <= e^{sqrt(2) t |x|_F}: the flow
    carries an upper bound on cond(g), 1 at g = I, and multiplies it by
    that factor at each accepted step.  Only when the bound passes
    COND_CAP / 2, or is not finite, does the accepted metric take an SVD,
    and the bound becomes its exact condition.  So every comparison with
    COND_CAP that can fire is made on an exact condition, and where the
    SVDs run does not change the iterates.  One SVD of the final metric
    gives the reported condition and the spectral norm to which
    ``final_metric`` is normalized.  The report lists the accepted t (0
    when none), the trials and the Hessian-vector products of each
    iteration.

    Returns the projection system of the final metric when converged, else
    None, together with the full report.
    """
    opts = opts or FlowOptions()
    return next(_flow_run(rep, w, opts.tol, opts.max_iter))


def _flow_run(rep: SubspaceRep, w: Weight, tol: float, max_iter: int):
    """The flow of ``kempf_ness_flow`` as a run that can be resumed.

    The generator yields the system and report of ``kempf_ness_flow`` at
    the first stop for tol, and, sent a smaller tolerance, continues the
    same run from there to its stop for that tolerance.  The stop test
    reads only the run's state and the tolerance, so the iterates and the
    report are those of a fresh run to the smaller tolerance."""
    w.aligned(rep.poset)
    if rep.ambient_dim == 0:
        raise WrongShape("flow needs a positive ambient dimension")
    if not w.trace_identity(rep):
        chi0_scaled, chi_scaled = w.common_integer(rep.poset)
        total = sum(chi_scaled[e] * rep.dim(e) for e in rep.poset.elements)
        raise NoTraceIdentity(
            f"sum chi_e d_e = {total} but chi0 d0 = {chi0_scaled * rep.ambient_dim} "
            "(after clearing denominators); no orthoscalar system exists"
        )
    g = np.eye(rep.ambient_dim, dtype=complex)
    mmap = _MomentMap(rep, w)
    projs, mu = mmap(g)
    residual = math.sqrt(_inner(mu, mu))
    # an upper bound on cond(g), exact wherever it could pass COND_CAP
    condition = 1.0
    history = [residual]
    steps: list[float] = []
    trials: list[int] = []
    hvps: list[int] = []
    grad_norm = 0.0
    step = 0.0
    # the damping of the next first trial, whether the last iteration had to
    # halve it, the forcing term of the next direction, and whether the last
    # iteration accepted no trial or stalled
    t_first, halved, eta, flat = 1.0, False, 0.5, False

    while True:
        status = ("plateau" if condition > COND_CAP
                  else "converged" if residual < tol
                  else "plateau" if flat
                  else "max_iter" if len(trials) == max_iter
                  else None)
        if status:
            # s[0] is the spectral norm and s[0] / s[-1] the exact condition;
            # the report takes copies of the lists the run goes on appending to
            s = linalg.singular_values(g)
            report = FlowReport(
                status=status,
                iterations=len(trials),
                attempts=sum(trials),
                hvp=sum(hvps),
                residual=residual,
                gradient_norm=float(grad_norm),
                step=step,
                condition=float(s[0] / s[-1]) if s[-1] > 0 else np.inf,
                history=list(history),
                steps=list(steps),
                trials=list(trials),
                hvps=list(hvps),
                final_metric=g / s[0],
            )
            tol = yield (mmap.system(projs) if status == "converged" else None), report
            continue
        x, lx, grad_sq, products = _newton_direction(mmap, projs, mu, eta)
        hvps.append(products)
        grad_norm = np.sqrt(grad_sq)
        f_old = residual * residual
        slope = 2.0 * _inner(mu, lx)
        best = None
        t, grow, tried = t_first, False, 0
        # a direction of no descent (x = 0 when mu meets no curvature) gets
        # no trial, and the iteration ends the run as a plateau
        for tried in range(1, (MAX_TRIALS if slope < 0 else 0) + 1):
            cand = linalg.herm_expm(t * x) @ g
            cprojs, cmu = mmap(cand)
            cres_sq = _inner(cmu, cmu)
            passed = cres_sq < f_old + ARMIJO_C * t * slope
            if passed:
                best = t, cand, cprojs, cmu, math.sqrt(cres_sq)
            if tried == 1:
                # doubling follows only a first trial that held, after an
                # iteration that did not halve
                grow = passed and t < 1 and not halved
            if grow and passed and t < 1:
                t *= 2.0
            elif passed or grow:
                break
            else:
                t *= 0.5
        trials.append(tried)
        halved = tried > 1 and not grow
        accepted = best is not None
        if accepted:
            t, g, projs, mu, cres = best
            eta = 0.1 if t == 1 and cres <= 0.5 * residual else 0.5
            residual = cres
            condition *= math.exp(math.sqrt(2.0 * _inner(x, x)) * t)
            if not condition <= 0.5 * COND_CAP:
                condition = linalg.condition_number(g)
            step, t_first = t, min(1.0, 2.0 * t)
        steps.append(t if accepted else 0.0)
        history.append(residual)
        flat = not accepted or (
            len(history) > STALL_WINDOW
            and residual > STALL_FACTOR * history[-1 - STALL_WINDOW]
        )


def unitary_invariants(
    ps: ProjectionSystem, max_len: int = 4
) -> dict[tuple[str, ...], complex]:
    """Trace monomials tr(P_{w1} ... P_{wk}) for words of length <= max_len.

    Words are reported once per cyclic class, keyed by the lexicographically
    smallest rotation (element order as stored in the poset), and listed in
    (length, word) order.  These traces separate unitary equivalence classes
    of projection families.

    A word is numbered by its letters' indices read as base-n digits, first
    letter most significant, so lexicographic order is numeric order.  The
    products of every word of length up to ceil(max_len / 2) are built by
    batched matmul over the projector stack, in that numbering.  A word of
    length m splits into halves U of length a = ceil(m / 2) and V of length
    m - a, and tr(U V) = sum_ij U_ij V_ji = <vec U, vec V^T>, so one matmul
    of the vectorized half-word products gives the trace of every word of
    length m at its own number.  The keys are the numbers equal to their
    least rotation.  The values are the left-to-right products' traces up
    to rounding.

    The P_e are Hermitian, so the trace of a reversed word is the complex
    conjugate of the word's trace.  Each key's mirror is the least rotation
    of its reversal, read off the same table of least rotations, and the
    values keep that symmetry exactly: of a key and its mirror, the larger
    takes the conjugate of the smaller's value, and a key that is its own
    mirror (every word of length <= 2 among them) has a real trace, stored
    with imaginary part 0.0.  Words are not merged through P_e^2 = P_e, so
    a word with a repeated adjacent letter keeps its own trace.
    """
    elems = ps.poset.elements
    names = np.array(elems, dtype=object)
    n, d0 = len(elems), ps.ambient_dim
    projs = np.array([ps.projections[e] for e in elems], dtype=complex).reshape(n, d0, d0)
    # prods[k][x]: the product of the word of length k numbered x
    prods = [np.eye(d0, dtype=complex)[None]]
    for k in range((max_len + 1) // 2):
        prods.append((prods[k][:, None] @ projs[None]).reshape(n ** (k + 1), d0, d0))
    out: dict[tuple[str, ...], complex] = {}
    for m in range(1, max_len + 1):
        a, b = (m + 1) // 2, m // 2
        left = prods[a].reshape(n ** a, d0 * d0)
        right = prods[b].transpose(0, 2, 1).reshape(n ** b, d0 * d0)
        traces = (left @ right.T).reshape(n ** m)
        # least[x]: the least rotation of the word numbered x
        x = least = np.arange(n ** m)
        for r in range(1, m):
            tail = n ** (m - r)
            least = np.minimum(least, x % tail * n ** r + x // tail)
        necklace = least == x
        keys, values = x[necklace], traces[necklace]
        place = n ** np.arange(m)
        letters = keys[:, None] // place[::-1] % n
        # each necklace's mirror: the least rotation of its reversal
        mirror = least[letters @ place]
        chiral = mirror < keys
        values[chiral] = values[np.searchsorted(keys, mirror[chiral])].conj()
        values.imag[mirror == keys] = 0.0
        out.update(zip(zip(*names[letters].T.tolist()), values.tolist()))
    return out


def fourspace_parameters(ps: ProjectionSystem, tol: float = 1e-6) -> tuple[float, float, float]:
    """Sphere coordinates of an orthoscalar four-line system in C^2.

    Requires the four-element antichain, ambient dimension 2, all ranks 1,
    and weight proportional to (2; 1, 1, 1, 1).  Returns

        (tr(P1 P4), tr(P1 P3), tr(P1 P2))

    which are the squared coordinates (a^2, b^2, c^2) of the parametrizing
    unit sphere; the three components always sum to tr(P1) = 1.
    """
    p = ps.poset
    if len(p) != 4 or p.pairs:
        raise WrongShape("fourspace parameters need the four-element antichain")
    if ps.ambient_dim != 2:
        raise WrongShape("fourspace parameters need ambient dimension 2")
    if any(ps.ranks[e] != 1 for e in p.elements):
        raise WrongShape("fourspace parameters need four rank-1 projections")
    if any(ps.weight.chi[e] * 2 != ps.weight.chi0 for e in p.elements):
        raise WrongShape("weight must be proportional to (2; 1, 1, 1, 1)")
    report = orthoscalar_check(ps, tol)
    if not report.passed:
        raise CheckFailed(f"system is not orthoscalar at {tol:.0e}: {report.as_dict()}")
    return ps.sphere_coordinates()
