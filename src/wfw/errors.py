"""Exception hierarchy shared across the package.

Every error carries enough context to act on (offending sizes, caps,
admissible bounds) so callers can degrade gracefully instead of parsing
messages.
"""


class WfwError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(WfwError):
    """Two clouds (or a cloud and a gradient field) disagree on ambient
    dimension, or two clouds that must pair atom for atom on atom count."""


class SizeCapExceeded(WfwError):
    """An exact/dense path was asked to build something above its configured cap."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class SinkhornNotConverged(WfwError):
    """A Sinkhorn solve ran out of iterations before tol; carries the last marginal error."""

    def __init__(self, message, marginal_error=None, iterations=None):
        super().__init__(message)
        self.marginal_error = marginal_error
        self.iterations = iterations


class NonFiniteDual(WfwError):
    """A dual vector or potential became NaN/inf during a solve."""


class LambdaTooSmall(WfwError):
    """Prox penalty weight does not exceed the objective's semiconvexity."""


class NonFiniteIterate(WfwError):
    """An inner iterate left the representable range (diverging prox solve).

    Carries the prox weight `lam`, the step count `step` at which it
    happened, and the number of rows still `active` then.
    """

    def __init__(self, message, lam=None, step=None, active=None):
        super().__init__(message)
        self.lam = lam
        self.step = step
        self.active = active


class ProxNotCertified(WfwError):
    """A prox row spent its iteration budget without certifying its accuracy.

    Carries the prox weight `lam`, the step count `step` at which the budget
    ran out, and the number of rows still `active` then.
    """

    def __init__(self, message, lam=None, step=None, active=None):
        super().__init__(message)
        self.lam = lam
        self.step = step
        self.active = active


class KCapExceeded(WfwError):
    """The concentration-driven sample count exceeds the configured cap."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class RegularizationTooWeak(WfwError):
    """Penalty slope at the left interval endpoint is too large for the objective.

    For the trust-region indicator this means the radius delta is above the
    admissible bound, which is reported in `max_admissible`.
    """

    def __init__(self, message, max_admissible=None):
        super().__init__(message)
        self.max_admissible = max_admissible


class IntervalEmpty(WfwError):
    """Dual search interval has u <= l."""


class DeltaTooLarge(WfwError):
    """Trust-region radius above the admissible curvature bound; bound attached."""

    def __init__(self, message, admissible=None):
        super().__init__(message)
        self.admissible = admissible


class RadiusOutOfRange(WfwError):
    """A trust-region radius past the float range of its dual: delta^2 / 2
    overflows, psi*' underflows so that the dual bracket has no finite
    right end, or the bracket is so wide that the prox tolerance, eps over
    its width, underflows to 0.  Carries `delta` and, from the bracket,
    `lam_hat`, or, from the tolerance, `eps`."""

    def __init__(self, message, delta=None, lam_hat=None, eps=None):
        super().__init__(message)
        self.delta = delta
        self.lam_hat = lam_hat
        self.eps = eps


class InfeasiblePrimal(WfwError):
    """The transported cost lands where the penalty is infinite."""

    def __init__(self, message, cost=None, bound=None):
        super().__init__(message)
        self.cost = cost
        self.bound = bound


class GapNotCertified(WfwError):
    """The dual search ended without a certified pass: on its bracket
    (rho, hi] it spent its pass cap, or collapsed the bracket, without a
    pass with h <= 0 and a gap within its tolerance.  Carries the last
    pass's `lam`, Fenchel-Young `gap` and the tolerance `eps`.
    """

    def __init__(self, message, lam=None, gap=None, eps=None):
        super().__init__(message)
        self.lam = lam
        self.gap = gap
        self.eps = eps


class WeakDualityViolated(WfwError):
    """A solve reported a dual value above its primal value beyond tolerance.

    Carries the gap (primal - dual) and both values, whose magnitudes set the
    scale against which the absolute tolerance was applied.
    """

    def __init__(self, message, gap=None, primal=None, dual=None):
        super().__init__(message)
        self.gap = gap
        self.primal = primal
        self.dual = dual


class MissingColumn(WfwError):
    """A trace CSV lacks a column the plot spec references."""
