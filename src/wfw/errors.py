"""Exception hierarchy shared across the package.

Every error carries enough context to act on (offending sizes, caps,
admissible bounds) so callers can degrade gracefully instead of parsing
messages.

A class declares the context it carries as class attributes that default
to None (`required = cap = None`); `WfwError(message, **context)` sets
the names passed and rejects, with `TypeError`, any name that no class
between the raised one and `WfwError` declares.
"""


class WfwError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, **context):
        super().__init__(message)
        mro = type(self).__mro__
        owners = mro[: mro.index(WfwError)]
        for name, value in context.items():
            if not any(name in vars(cls) for cls in owners):
                raise TypeError(f"{type(self).__name__} carries no context {name!r}")
            setattr(self, name, value)


class DimensionMismatch(WfwError):
    """Two clouds (or a cloud and a gradient field) disagree on ambient
    dimension, or two clouds that must pair atom for atom on atom count."""


class SizeCapExceeded(WfwError):
    """An exact/dense path was asked to build something above its configured cap."""

    required = cap = None


class SinkhornNotConverged(WfwError):
    """A Sinkhorn solve's last stage, at sigma2 itself, stalled above tol;
    carries its `marginal_error` and the `iterations` (sweeps plus Newton
    steps) the solve spent."""

    marginal_error = iterations = None


class NonFiniteDual(WfwError):
    """A dual vector or potential became NaN/inf during a solve."""


class LambdaTooSmall(WfwError):
    """Prox penalty weight does not exceed the objective's semiconvexity."""


class NonFiniteIterate(WfwError):
    """An inner iterate left the representable range (diverging prox solve).

    Carries the prox weight `lam`, the step count `step` at which it
    happened, and the number of rows still `active` then.
    """

    lam = step = active = None


class ProxNotCertified(WfwError):
    """A prox row spent its iteration budget without certifying its accuracy.

    Carries the prox weight `lam`, the step count `step` at which the budget
    ran out, and the number of rows still `active` then.
    """

    lam = step = active = None


class KCapExceeded(WfwError):
    """The concentration-driven sample count exceeds the configured cap."""

    required = cap = None


class RegularizationTooWeak(WfwError):
    """Penalty slope at the left interval endpoint is too large for the objective.

    For the trust-region indicator this means the radius delta is above the
    admissible bound, which is reported in `max_admissible`.
    """

    max_admissible = None


class IntervalEmpty(WfwError):
    """Dual search interval has u <= l, or an end that is NaN."""


class DeltaTooLarge(WfwError):
    """Trust-region radius above the admissible curvature bound; bound attached."""

    admissible = None


class RadiusOutOfRange(WfwError):
    """A trust-region radius past the float range of its dual: delta^2 / 2
    overflows, psi*' underflows so that the dual bracket has no finite
    right end, or the bracket is so wide that the pass tolerance at its
    right end underflows to 0.  Carries `delta` and, from the bracket,
    `lam_hat`, or, from the tolerance, `eps`."""

    delta = lam_hat = eps = None


class GapNotCertified(WfwError):
    """The dual search ended without a certified pass: on its bracket
    (rho, hi] it spent its pass cap, or collapsed the bracket, without a
    pass with h <= 0 and a read gap within its stop threshold.  Carries the
    last pass's `lam`, Fenchel-Young `gap` and that threshold as `eps`.
    """

    lam = gap = eps = None


class WeakDualityViolated(WfwError):
    """A solve reported a dual value above its primal value beyond tolerance.

    Carries the gap (primal - dual) and both values, whose magnitudes set the
    scale against which the absolute tolerance was applied.
    """

    gap = primal = dual = None


class EmptyCloud(WfwError):
    """A cloud CSV holds no rows; carries its `path`."""

    path = None


class MissingColumn(WfwError):
    """A trace CSV lacks a column the plot spec references."""
