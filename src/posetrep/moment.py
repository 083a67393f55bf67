"""Moment maps for weighted projection systems and the Kempf-Ness flow.

For a subspace representation with weight chi the moment map at a metric
g in GL(V) is

    mu(g) = sum_e chi_e P_{g V_e} - chi0 I.

A zero of mu on the GL-orbit of the representation is an orthoscalar system:
Hermitian idempotents of the prescribed ranks, nested along the poset
(P_i P_j = P_j P_i = P_i for i < j), summing with weights to chi0 I.  The
flow g <- exp(-eps mu(g)) g is gradient descent for the squared residual
F(g) = ||mu(g)||_F^2.  The infimum of F over the orbit is zero exactly on
the semistable classes, and it is attained (by an orthoscalar
representative) exactly on the polystable ones.  So a converged run
certifies polystability only while the metric condition number stays
bounded: a condition that keeps growing as the residual falls means the
flow is approaching the boundary of the orbit, as it does for strictly
semistable classes (the four lines at lambda in {0, 1, inf}).  A
positive-residual plateau points to instability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CheckFailed,
    NoTraceIdentity,
    NumericalBreakdown,
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

    def range_basis(self, e: str) -> np.ndarray:
        """Orthonormal basis of range(P_e): the eigenvectors of the rank_e
        largest eigenvalues."""
        w, v = np.linalg.eigh(self.projections[e])
        return v[:, np.argsort(w)[::-1][: self.ranks[e]]]

    def subspace_rep(self, tol: float = 1e-8) -> SubspaceRep:
        """Representation spanned by the projection ranges (rank many columns)."""
        spans = {e: self.range_basis(e) for e in self.poset.elements}
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
    d0 = ps.ambient_dim
    herm = idem = rank_dev = nesting = 0.0
    for e in ps.poset.elements:
        p = linalg.as_complex(ps.projections[e])
        if p.shape != (d0, d0):
            raise WrongShape(f"projection for {e!r} has shape {p.shape}")
        herm = max(herm, float(np.linalg.norm(p - p.conj().T)))
        idem = max(idem, float(np.linalg.norm(p @ p - p)))
        rank_dev = max(rank_dev, abs(float(np.trace(p).real) - ps.ranks[e]))
    for a, b in ps.poset.pairs:
        pa, pb = ps.projections[a], ps.projections[b]
        nesting = max(
            nesting,
            float(np.linalg.norm(pa @ pb - pa)),
            float(np.linalg.norm(pb @ pa - pa)),
        )
    scalar_m = -float(ps.weight.chi0) * np.eye(d0, dtype=complex)
    for e in ps.poset.elements:
        scalar_m = scalar_m + float(ps.weight.chi[e]) * ps.projections[e]
    scalar = float(np.linalg.norm(scalar_m))
    return CheckReport(herm, idem, rank_dev, nesting, scalar, tol)


class _MomentMap:
    """mu(g) = sum_e chi_e P_{g V_e} - chi0 I for one representation and
    weight, with one batched QR per span width.

    The projectors come as one (n, d0, d0) stack in poset order.  For the
    elements of one width (``linrep._width_groups``) P = Q Q*, with Q from
    one QR of g V_e batched over the group.  Along the flow g is invertible
    with bounded condition, so g V_e keeps the column rank of V_e and no
    rank cut is needed; the Gram route M (M* M)^-1 M* would square the
    condition number.  Width-0 elements have the zero projector.  mu is
    summed from -chi0 I in poset order, as one reduction over a stack: near
    the boundary the flow's accept/reject decisions follow the last bits of
    mu, and summing in another order (a tensordot) moves its iteration
    counts.
    """

    def __init__(self, rep: SubspaceRep, w: Weight):
        elements = rep.poset.elements
        d0 = rep.ambient_dim
        self.rep = rep
        self.weight = w
        self.chi = np.array([float(w.chi[e]) for e in elements])
        self.shift = -float(w.chi0) * np.eye(d0, dtype=complex)
        self.groups = [(idx, stack) for idx, stack in _width_groups(rep) if stack.shape[2]]

    def __call__(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The projector stack and mu(g)."""
        n, d0 = len(self.chi), len(self.shift)
        p = np.zeros((n, d0, d0), dtype=complex)
        for idx, stack in self.groups:
            q = np.linalg.qr(g @ stack)[0]
            p[idx] = q @ q.conj().swapaxes(1, 2)
        terms = np.empty((n + 1, d0, d0), dtype=complex)
        terms[0] = self.shift
        np.multiply(self.chi[:, None, None], p, out=terms[1:])
        return p, terms.sum(axis=0)

    def gradient_sq(self, p: np.ndarray, mu: np.ndarray) -> float:
        """4 sum_e chi_e |(I - P_e) mu P_e|_F^2."""
        mp = mu @ p
        r = mp - p @ mp
        return 4.0 * float(self.chi @ (r.real**2 + r.imag**2).sum(axis=(1, 2)))

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

    Equals 4 Re tr(mu D) with D = sum_e chi_e (I - P_e) h P_e.
    """
    mmap, p, mu = _checked_moment(rep, g, w)
    hp = linalg.as_complex(h) @ p
    d = np.tensordot(mmap.chi, hp - p @ hp, axes=1)
    return float(4.0 * np.real(np.trace(mu @ d)))


#: Armijo constant of the backtracking test
ARMIJO_C = 0.1
#: the step doubles after this many accepted steps in a row
GROW_EVERY = 5
#: plateau: the gradient norm stays below PLATEAU_GRAD for PLATEAU_WINDOW
#: iterations while the residual stays above 100 tol
PLATEAU_GRAD = 1e-10
PLATEAU_WINDOW = 50
#: largest metric condition number before NumericalBreakdown
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
    residual: float
    gradient_norm: float
    step: float
    condition: float
    history: list[float] = field(default_factory=list)
    final_metric: np.ndarray | None = None

    def as_dict(self) -> dict:
        from .fileio import format_complex

        metric = None
        if self.final_metric is not None:
            metric = [
                [format_complex(z) for z in row] for row in self.final_metric.tolist()
            ]
        return {
            "status": self.status,
            "iterations": self.iterations,
            "attempts": self.attempts,
            "residual": self.residual,
            "gradient_norm": self.gradient_norm,
            "step": self.step,
            "condition": self.condition,
            "history": list(self.history),
            "final_metric": metric,
        }


def kempf_ness_flow(
    rep: SubspaceRep, w: Weight, opts: FlowOptions | None = None
) -> tuple[ProjectionSystem | None, FlowReport]:
    """Run gradient descent g <- exp(-eps mu(g)) g on F = ||mu||_F^2 from
    g = I.

    Backtracking (Armijo constant ARMIJO_C) keeps the residual history
    monotone; the step starts at 1 / (4 chi0), is halved on rejection and
    doubled after GROW_EVERY consecutive accepts.  Stops with status
    converged when the residual drops below tol, plateau when the gradient
    stays below PLATEAU_GRAD for PLATEAU_WINDOW iterations while the
    residual stays above 100 tol, and max_iter otherwise.  The weighted
    trace identity is required up front (NoTraceIdentity), and the metric
    condition number is capped at COND_CAP (NumericalBreakdown).

    Each step trial costs one Hermitian exponential, one moment-map
    evaluation (one batched QR per span width, see ``_MomentMap``) and one
    SVD of the candidate metric, whose singular values give both the
    spectral-norm normalization and the condition number checked against
    COND_CAP.

    Returns the projection system of the final metric when converged, else
    None, together with the full report.
    """
    opts = opts or FlowOptions()
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
    step = 1.0 / (4.0 * float(w.chi0))
    projs, mu = mmap(g)
    residual = float(np.linalg.norm(mu))
    condition = linalg.condition_number(g)
    history = [residual]
    grad_norm = np.inf
    plateau_count = 0
    accepts_in_row = 0
    attempts = 0
    status = "max_iter"
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        if residual < opts.tol:
            status = "converged"
            iterations -= 1
            break
        grad_sq = mmap.gradient_sq(projs, mu)
        grad_norm = np.sqrt(grad_sq)
        if grad_norm < PLATEAU_GRAD and residual > 100 * opts.tol:
            plateau_count += 1
            if plateau_count >= PLATEAU_WINDOW:
                status = "plateau"
                break
        else:
            plateau_count = 0

        f_old = residual * residual
        accepted = False
        for _ in range(60):
            attempts += 1
            cand = linalg.herm_expm(-step * mu) @ g
            # s[0] is the spectral norm and s[0] / s[-1] the condition
            s = np.linalg.svd(cand, compute_uv=False)
            cand = cand / s[0]
            cprojs, cmu = mmap(cand)
            cres = float(np.linalg.norm(cmu))
            # Strict decrease: at an exact critical point (grad 0) the
            # candidate leaves the residual unchanged and must be rejected,
            # otherwise step growth inflates the metric for nothing.
            if cres * cres < f_old - ARMIJO_C * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if accepted:
            g, projs, mu, residual = cand, cprojs, cmu, cres
            condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
            accepts_in_row += 1
            if accepts_in_row >= GROW_EVERY:
                step = min(step * 2.0, 1e9)
                accepts_in_row = 0
        else:
            accepts_in_row = 0
        history.append(residual)
        if condition > COND_CAP:
            raise NumericalBreakdown(
                f"metric condition number exceeded {COND_CAP:.0e} "
                f"at residual {residual:.3e}"
            )
    else:
        iterations = opts.max_iter

    if status != "converged" and residual < opts.tol:
        status = "converged"

    report = FlowReport(
        status=status,
        iterations=iterations,
        attempts=attempts,
        residual=residual,
        gradient_norm=float(grad_norm) if np.isfinite(grad_norm) else 0.0,
        step=step,
        condition=linalg.condition_number(g),
        history=history,
        final_metric=g,
    )
    if status != "converged":
        return None, report
    return mmap.system(projs), report


def hopf_normal_form(ps: ProjectionSystem, tol: float = 1e-6) -> dict[str, np.ndarray]:
    """Isometry normal form A_e = sqrt(chi_e/chi0) Q_e of an orthoscalar system.

    Q_e is an orthonormal basis of range(P_e); the output satisfies
    A_e^* A_e = (chi_e/chi0) I and sum_e A_e A_e^* = I.  CheckFailed when the
    input is not orthoscalar at tol or the output fails its own checks.
    """
    report = orthoscalar_check(ps, tol)
    if not report.passed:
        raise CheckFailed(f"input system is not orthoscalar at {tol:.0e}: {report.as_dict()}")
    d0 = ps.ambient_dim
    chi = ps.weight.normalized(ps.poset)
    out: dict[str, np.ndarray] = {}
    total = np.zeros((d0, d0), dtype=complex)
    for e in ps.poset.elements:
        a = np.sqrt(chi[e]) * ps.range_basis(e)
        gram_dev = np.linalg.norm(a.conj().T @ a - chi[e] * np.eye(ps.ranks[e]))
        if gram_dev > tol:
            raise CheckFailed(f"normal form for {e!r} fails its Gram identity")
        out[e] = a
        total += a @ a.conj().T
    if np.linalg.norm(total - np.eye(d0)) > tol:
        raise CheckFailed("normal form blocks do not resolve the identity")
    return out


def unitary_invariants(
    ps: ProjectionSystem, max_len: int = 4
) -> dict[tuple[str, ...], complex]:
    """Trace monomials tr(P_{w1} ... P_{wk}) for words of length <= max_len.

    Words are reported once per cyclic class, keyed by the lexicographically
    smallest rotation (element order as stored in the poset), and listed in
    (length, word) order.  These traces separate unitary equivalence classes
    of projection families.
    """
    elems = ps.poset.elements
    projs = [ps.projections[e] for e in elems]
    out: dict[tuple[str, ...], complex] = {}
    # words as index tuples, each with its product, formed from its prefix's
    # product in the same left-to-right order as from scratch
    level: list[tuple[tuple[int, ...], np.ndarray]] = [
        ((), np.eye(ps.ambient_dim, dtype=complex))
    ]
    for length in range(1, max_len + 1):
        last = length == max_len
        nxt = []
        for prefix, m in level:
            # a word below all its rotations has no letter smaller than its
            # first, and neither has any prefix of it: append only such letters
            for i in range(prefix[0] if prefix else 0, len(elems)):
                word = prefix + (i,)
                canonical = all(word <= word[k:] + word[:k] for k in range(1, length))
                if canonical or not last:
                    mw = m @ projs[i]
                    if canonical:
                        out[tuple(elems[j] for j in word)] = complex(mw.trace())
                    if not last:
                        nxt.append((word, mw))
        level = nxt
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
