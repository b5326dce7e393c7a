"""Exception hierarchy shared across the package."""


class CoricciError(Exception):
    """Base class for all package errors."""


class MetricViolation(CoricciError):
    """The supplied distance table is not a metric."""


class RepeatedPoint(CoricciError):
    """Two points of a space share one name."""


class DisconnectedGraph(CoricciError):
    """Edge-list input does not define a connected graph."""


class RowNotStochastic(CoricciError):
    """A kernel row does not sum to 1."""


class NegativeProbability(CoricciError):
    pass


class UnknownPoint(CoricciError):
    pass


class DegenerateSupport(CoricciError):
    """A Dirac mass where spread is needed: the measure's 1-Lipschitz
    variance is 0, or every kernel row is one and n = inf n_x is undefined."""


class SupportTooLarge(CoricciError):
    """Exact Lipschitz-polytope enumeration capped (support size > 12)."""


class Infeasible(CoricciError):
    """Transport solver could not match marginals (invalid input)."""


class SamePoint(CoricciError):
    """Curvature in the direction (x, x) is undefined."""


class NotGeodesic(CoricciError):
    """The space fails the eps-geodesic precondition."""


class NoPairs(CoricciError):
    """The pair scan has no pair of distinct points (a one-point space)."""


class InequalityFails(CoricciError):
    """An inequality the theory guarantees failed numerically; the message
    names it."""


class NonPositiveCurvature(CoricciError):
    """The check requires a positive global curvature lower bound."""


class NotLipschitz(CoricciError):
    pass


class LambdaTooLarge(CoricciError):
    """lambda exceeds 1/(24*sigma_inf*(1+U))."""


class NonPositiveF(CoricciError):
    """The entropy form needs f > 0 everywhere."""


class NegativeCurvatureSomewhere(CoricciError):
    pass


class NotRGeodesic(CoricciError):
    """The space fails the r-geodesic hypothesis of Thm. 44 / Prop. 50."""


class NonPositiveRho(CoricciError):
    """No attracting point: the annulus pull rho is <= 0."""


class MomentOverflow(CoricciError):
    """Thm. 44's exponential moment is not finite in floating point."""


class HypothesisFails(CoricciError):
    """The attracting-point hypothesis fails at some annulus point."""


class InvalidParams(CoricciError):
    pass


class TruncationTooAggressive(CoricciError):
    """Stationary tail mass beyond the truncation bound is too large."""


class SpaceMismatch(CoricciError):
    pass


class BadWeights(CoricciError):
    pass


class ProductTooLarge(CoricciError):
    pass


class RatesNegative(CoricciError):
    pass


class DtTooLarge(CoricciError):
    """dt times the maximal exit rate exceeds 1/2."""


class ChainFileError(CoricciError):
    """Chain file does not parse; message carries the offending field."""
