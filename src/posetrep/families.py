"""Named example families: four lines in C^2 and the tame primitive posets.

The four-subspace family is the workhorse test bed.  For a parameter lam the
representation consists of the lines spanned by e1, e2, e1 + e2 and
e1 + lam e2 inside C^2 (lam = infinity means the line e2).  With weight
(2; 1, 1, 1, 1) the generic member is stable and its orthoscalar
representative is a quadruple of rank-1 projections parametrized by a point
(a, b, c) of the unit sphere; lam in {0, 1, infinity} are the exceptional
split points.  The family is exact: ``four_lines_rep`` writes down its unit
vectors with no SVD, and ``four_lines_summands`` reads the split of the
flow's limit off the 2x2 determinants of those vectors.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import WrongShape
from .linalg import DEFAULT_TOL
from .linrep import SubspaceRep, Weight
from .moment import ProjectionSystem
from .poset import Poset, primitive_poset

INF_TOKENS = ("inf", "infinity", "oo")

FOUR_ANTICHAIN: Poset = primitive_poset(1, 1, 1, 1)

#: Dimension vectors (root first, element order) of the minimal sincere
#: imaginary roots of the four tame primitive posets; each gives quotient
#: dimension bound exactly 1.
TAME_DIM_VECTORS: dict[tuple[int, ...], tuple[int, ...]] = {
    (1, 1, 1, 1): (2, 1, 1, 1, 1),
    (2, 2, 2): (3, 1, 2, 1, 2, 1, 2),
    (1, 3, 3): (4, 2, 1, 2, 3, 1, 2, 3),
    (1, 2, 5): (6, 3, 2, 4, 1, 2, 3, 4, 5),
}

#: Grouped dimension entries quoted for the zigzag-plus-chain poset (n4_poset
#: element order): root 5, multiset {2, 4, 3, 2} on the zigzag, (1, 2, 3, 4)
#: on the chain.  No nesting-consistent placement is pinned down, hence the
#: assignment search in bound_quiver.assignment_report.
N4_ROOT_DIM = 5
N4_GROUPS: tuple[tuple[int, ...], ...] = ((2, 4, 3, 2), (1, 2, 3, 4))

FOURSPACE_WEIGHT = Weight(2, {e: Fraction(1) for e in FOUR_ANTICHAIN.elements})

EXCEPTIONAL_LAMBDAS = (0.0, 1.0, math.inf)


def parse_lambda(token: str) -> complex | float:
    """Parse a lambda grid token; accepts i or j imaginary units and inf.

    Every value whose modulus overflows a float (1e400, -1e400, 2-1e400i,
    1.5e308+1.5e308i) is the point infinity, returned as math.inf; NaN is
    rejected (WrongShape).
    """
    text = token.strip().lower()
    if text in INF_TOKENS:
        return math.inf
    try:
        lam = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise WrongShape(f"cannot parse lambda value {token!r}") from exc
    if cmath.isnan(lam):
        raise WrongShape(f"lambda value {token!r} is not a number")
    return math.inf if math.isinf(math.hypot(lam.real, lam.imag)) else lam


def is_exceptional(lam: complex | float) -> bool:
    if lam == math.inf:
        return True
    return abs(lam) < 1e-12 or abs(lam - 1.0) < 1e-12


def _unit_lines(lam: complex | float) -> tuple[tuple[complex, complex], ...]:
    """The four lines as unit vectors (x, y) of C^2, in element order: e1,
    e2, (e1 + e2) / sqrt 2 and (e1 + lam e2) / hypot(1, |lam|), or e2 at
    lam = infinity.  hypot keeps every |lam| of the float range from
    overflowing, where 1 + |lam|^2 would."""
    if lam == math.inf:
        fourth = (0j, 1 + 0j)
    else:
        lam = complex(lam)
        h = math.hypot(1.0, abs(lam))
        fourth = (1 / h + 0j, lam / h)
    r = 1 / math.sqrt(2.0) + 0j
    return (1 + 0j, 0j), (0j, 1 + 0j), (r, r), fourth


def four_lines_rep(lam: complex | float | str) -> SubspaceRep:
    """Lines e1, e2, e1 + e2, e1 + lam e2 in C^2 over the four-antichain.

    lam = infinity (float inf or a token like "inf") puts the fourth line at
    e2.  Distinct lam give pairwise non-isomorphic representations.  The
    spans are the unit vectors of the lines, written down directly: each
    is already an orthonormal basis and the antichain has no nesting to
    check, so no ``make_rep`` (and no SVD) is needed.
    """
    if isinstance(lam, str):
        lam = parse_lambda(lam)
    lines = zip(FOUR_ANTICHAIN.elements, _unit_lines(lam))
    return SubspaceRep(FOUR_ANTICHAIN, 2, {e: np.array([[x], [y]]) for e, (x, y) in lines})


def four_lines_summands(lam: complex | float, w: Weight) -> int:
    """The number of summands of the polystable limit of the four lines at
    lam under the weight w (aligned with the four-antichain): 1 when the
    lines are stable, else 2, a score-0 line and its quotient.

    In C^2 every proper subspace is a line and only the V_e score above
    -sigma, so the lines are stable iff every V_e scores below 0: with c_f
    the integer weights (``Weight._c``), iff for every e the lines V_f that
    coincide with V_e (V_e among them) have 2 sum c_f < the sum of all
    four c_f.  Unit lines u, v coincide when |det[u, v]| <= tol (1 + |u* v|),
    tol the rank tolerance DEFAULT_TOL: the singular values of [u, -v] are
    sqrt(1 +- |u* v|), so the ratio that ``linalg.subspace_intersections``
    compares with tol is sin / (1 + cos) = tan(theta / 2) of the angle
    theta between the lines, and this test reads as the scores of
    ``linrep._Scorer`` do, in a few complex operations and no SVD.
    """
    lines, tol = _unit_lines(lam), DEFAULT_TOL
    c = [w._c[e] for e in FOUR_ANTICHAIN.elements]
    total = sum(c)
    for x, y in lines:
        # the weight of the lines (u, v) that coincide with (x, y)
        share = sum(ce for ce, (u, v) in zip(c, lines)
                    if abs(x * v - y * u) <= tol * (1 + abs(x.conjugate() * u
                                                            + y.conjugate() * v)))
        if 2 * share >= total:
            return 2
    return 1


def sphere_projection_system(a: float, b: float, c: float) -> ProjectionSystem:
    """The explicit orthoscalar four-line family on the unit sphere.

    For a^2 + b^2 + c^2 = 1 the four rank-1 projections

        P1 = 1/2 [[1+a, -b-ic], [-b+ic, 1-a]]
        P2 = 1/2 [[1-a,  b-ic], [ b+ic, 1+a]]
        P3 = 1/2 [[1-a, -b+ic], [-b-ic, 1+a]]
        P4 = 1/2 [[1+a,  b+ic], [ b-ic, 1-a]]

    satisfy P1 + P2 + P3 + P4 = 2 I, and tr(P1 P4) = a^2, tr(P1 P3) = b^2,
    tr(P1 P2) = c^2.
    """
    if abs(a * a + b * b + c * c - 1.0) > 1e-9:
        raise WrongShape("(a, b, c) must lie on the unit sphere")
    i = 1j
    p1 = 0.5 * np.array([[1 + a, -b - i * c], [-b + i * c, 1 - a]], dtype=complex)
    p2 = 0.5 * np.array([[1 - a, b - i * c], [b + i * c, 1 + a]], dtype=complex)
    p3 = 0.5 * np.array([[1 - a, -b + i * c], [-b - i * c, 1 + a]], dtype=complex)
    p4 = 0.5 * np.array([[1 + a, b + i * c], [b - i * c, 1 - a]], dtype=complex)
    a1, a2, a3, a4 = FOUR_ANTICHAIN.elements
    return ProjectionSystem(
        poset=FOUR_ANTICHAIN,
        weight=FOURSPACE_WEIGHT,
        projections={a1: p1, a2: p2, a3: p3, a4: p4},
        ranks={e: 1 for e in FOUR_ANTICHAIN.elements},
    )
