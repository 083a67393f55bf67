"""Named example families: four lines in C^2 and the tame primitive posets.

The four-subspace family is the workhorse test bed.  For a parameter lam the
representation consists of the lines spanned by e1, e2, e1 + e2 and
e1 + lam e2 inside C^2 (lam = infinity means the line e2).  With weight
(2; 1, 1, 1, 1) the generic member is stable and its orthoscalar
representative is a quadruple of rank-1 projections parametrized by a point
(a, b, c) of the unit sphere; lam in {0, 1, infinity} are the exceptional
split points.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import WrongShape
from .linrep import SubspaceRep, Weight, make_rep
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


def four_lines_rep(lam: complex | float | str) -> SubspaceRep:
    """Lines e1, e2, e1 + e2, e1 + lam e2 in C^2 over the four-antichain.

    lam = infinity (float inf or a token like "inf") puts the fourth line at
    e2.  Distinct lam give pairwise non-isomorphic representations.
    """
    if isinstance(lam, str):
        lam = parse_lambda(lam)
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    if lam == math.inf:
        fourth = e2
    else:
        fourth = np.array([[1.0], [complex(lam)]], dtype=complex)
    a1, a2, a3, a4 = FOUR_ANTICHAIN.elements
    return make_rep(
        FOUR_ANTICHAIN,
        2,
        {a1: e1, a2: e2, a3: e1 + e2, a4: fourth},
    )


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
