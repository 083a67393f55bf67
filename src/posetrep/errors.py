"""Exception types shared across the package."""


class PosetRepError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateElement(PosetRepError):
    """An element identifier occurs more than once."""


class InvalidElement(PosetRepError):
    """An element identifier is empty, reserved, or contains whitespace."""


class CycleError(PosetRepError):
    """Transitive closure of the given covers would force x < x."""


class NotHasseQuiver(PosetRepError):
    """A length-1 arrow runs parallel to a longer path, so the quiver is not
    the covering quiver of a poset and the commutativity ideal is undefined."""


class NotSubspaceRep(PosetRepError):
    """A quiver representation has a non-injective structure map."""


class RelationViolation(PosetRepError):
    """A quiver representation fails a commutativity relation."""


class NestingViolation(PosetRepError):
    """Subspaces fail a required inclusion V_i <= V_j."""


class RankDeficient(PosetRepError):
    """A spanning matrix has lower numerical rank than its column count."""


class PosetMismatch(PosetRepError):
    """Two representations do not live over the same poset."""


class LatticeTooLarge(PosetRepError):
    """Subspace lattice closure exceeded the configured size cap.

    ``members`` holds the orthonormal bases found before it stopped, sorted
    by dimension like a complete lattice."""

    def __init__(self, message: str, members: list | None = None):
        super().__init__(message)
        self.members = members or []


class SingularMetric(PosetRepError):
    """The metric matrix is numerically singular."""


class NoTraceIdentity(PosetRepError):
    """sum(chi_i d_i) != chi0 d0, so no weighted projection identity exists."""


class NumericalBreakdown(PosetRepError):
    """The flow metric became too ill-conditioned to continue."""


class CheckFailed(PosetRepError):
    """A projection system failed its consistency checks."""


class WrongShape(PosetRepError):
    """Input has the wrong poset, dimensions, or weight for this operation."""


class ParseError(PosetRepError):
    """A text input could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
