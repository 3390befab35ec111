"""Exception types shared across the toolkit.

Names mirror the failure modes of the public operations; all inherit from
TransportkitError so callers can catch broadly.
"""


class TransportkitError(Exception):
    """Base class for all toolkit errors."""


# --- measure / cost construction ---

class NegativeWeight(TransportkitError):
    pass


class DuplicatePoint(TransportkitError):
    pass


class MassNotOne(TransportkitError):
    pass


class DimensionMismatch(TransportkitError):
    pass


class OffGrid(TransportkitError):
    """Matrix cost queried at a point that is not a grid node."""


class MissingValue(TransportkitError):
    """A function table lacks a value at a required support point."""


class NonFinite(TransportkitError):
    """An evaluator, modulus, cost or box holds NaN or an infinity."""


# --- linear programming ---

class NumericalBreakdown(TransportkitError):
    """Simplex could not find an admissible pivot above tolerance."""


# --- transport solvers ---

class ProductTooLarge(TransportkitError):
    """An LP's dense tableau would exceed ``lp.DENSE_BUDGET_BYTES``."""


class NotAMetric(TransportkitError):
    """Cost failed a metric axiom; carries the violating points."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InfeasibleInput(TransportkitError):
    """Input potentials violate the joint upper bound on the seed product."""


class NotAFixedPoint(TransportkitError):
    """Potentials do not satisfy the infimum fixed-point identity."""


# --- convex order / martingale transport ---

class NotInConvexOrder(TransportkitError):
    pass


class BarycenterMismatch(TransportkitError):
    pass


class NonVanishingDiagonal(TransportkitError):
    pass


class NonSmoothDiagonal(TransportkitError):
    """Cost is not twice differentiable across the diagonal x = y."""


class BadCheckParameter(TransportkitError):
    """A sampled check with no samples, or a differenced one whose step is
    not finite and positive: either would pass any cost unexamined."""


# --- function classes ---

class EmptyAtoms(TransportkitError):
    pass


class GammaMissing(TransportkitError):
    pass


class LowerBoundViolation(TransportkitError):
    pass


class GridTooCoarse(TransportkitError):
    pass


class MissingGrowth(TransportkitError):
    """A cost lacks the growth bound |c(x, y)| <= Lambda ||x - y||."""


class RestrictionDeviates(TransportkitError):
    """An extension's envelope misses g on its grid: gamma fails there."""
