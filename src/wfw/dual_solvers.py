"""One-dimensional dual ascent for penalized transport subproblems.

The primal problem couples a cloud mu to a new measure nu while paying a
penalty psi on the transported cost:

    minimize   E_nu[f]  +  psi( E_pi[(1/2)||y - x||^2] )

Its dual over the single scalar lam is g(lam) - psi*(lam) with g the
Moreau-envelope mean of the `moreau` module — concave, one-dimensional, and
solvable by bisection or mirror ascent.  The trust-region specialization
(psi an indicator of [0, delta^2/2]) is the inner step of the outer
Frank-Wolfe loop.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    DeltaTooLarge,
    InfeasiblePrimal,
    IntervalEmpty,
    LambdaTooSmall,
    RegularizationTooWeak,
    WeakDualityViolated,
)
from .moreau import (
    agd_prox_batch,
    g_value_and_grad_fullbatch,
    hp_sample_count,
    supergradient_hp,
)


class TrustRegionIndicator:
    """Indicator penalty of the cost interval [0, delta^2/2].

    psi(x) = 0 on the interval, +inf beyond it (with a small relative
    feasibility slack absorbing prox roundoff); psi*(lam) = (delta^2/2) *
    max(lam, 0).  Constraining the transported cost to delta^2/2 constrains
    the transport distance to delta.
    """

    def __init__(self, delta, feas_slack=1e-9):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self.feas_slack = float(feas_slack)

    def psi(self, x):
        bound = 0.5 * self.delta**2
        return 0.0 if x <= bound * (1.0 + self.feas_slack) else math.inf

    def psi_star(self, lam):
        return 0.5 * self.delta**2 * max(lam, 0.0)

    def psi_star_deriv(self, lam):
        """Right derivative of psi*."""
        return 0.5 * self.delta**2 if lam >= 0.0 else 0.0

    def subgrad_interval(self, lam):
        bound = 0.5 * self.delta**2
        if lam > 0.0:
            return bound, bound
        if lam < 0.0:
            return 0.0, 0.0
        return 0.0, bound

    def smoothness_on(self, l, u):
        return 0.0  # affine on lam > 0

    def regularization_at(self, lam):
        """Left derivative of psi*."""
        return 0.5 * self.delta**2 if lam > 0.0 else 0.0


class PowerPenalty:
    """Power penalty psi(x) = x^(1+alpha)/(1+alpha) on the cost axis x >= 0.

    Conjugate psi*(lam) = (alpha/(1+alpha)) * max(lam, 0)^((1+alpha)/alpha),
    smooth on any interval bounded away from the origin.
    """

    def __init__(self, alpha):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)

    def psi(self, x):
        a = self.alpha
        return max(x, 0.0) ** (1.0 + a) / (1.0 + a)

    def psi_star(self, lam):
        a = self.alpha
        return a / (1.0 + a) * max(lam, 0.0) ** ((1.0 + a) / a)

    def psi_star_deriv(self, lam):
        return max(lam, 0.0) ** (1.0 / self.alpha)

    def subgrad_interval(self, lam):
        d = self.psi_star_deriv(lam)
        return d, d

    def smoothness_on(self, l, u):
        # psi*'' is monotone, so its max over [l, u] sits at an endpoint.
        a = self.alpha
        lo = (1.0 / a) * l ** (1.0 / a - 1.0) if l > 0 else math.inf
        hi = (1.0 / a) * u ** (1.0 / a - 1.0) if u > 0 else math.inf
        return max(lo, hi)

    def regularization_at(self, lam):
        return max(lam, 0.0) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class DualSolveReport:
    """Outcome of one dual solve; primal fields are None for dual-only solvers.

    `images` and `cost` are the prox images of the atoms at `lambda_star`
    and their mean half squared displacement, from the prox pass that
    certified the primal value (None when no such pass ran).

    Raises:
        WeakDualityViolated: the gap is below -1e-6.
    """

    lambda_star: float
    dual_value: float
    primal_value: Optional[float]
    gap: Optional[float]
    oracle_calls: int
    samples_drawn: int
    interval: tuple
    images: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    cost: Optional[float] = None

    def __post_init__(self):
        if self.gap is not None and not (self.gap >= -1e-6):
            raise WeakDualityViolated(
                f"weak duality violated: gap = {self.gap} "
                f"(primal {self.primal_value}, dual {self.dual_value})",
                gap=self.gap,
                primal=self.primal_value,
                dual=self.dual_value,
            )


@dataclass(frozen=True)
class PushforwardSampler:
    """Coupling (x, m(x)) of a cloud with its prox images at a fixed lam.

    `images[i]` is the prox of atom i of `source` at weight `lam`, so
    `target_cloud` materializes the second marginal of the coupling.
    """

    lam: float
    source: object
    images: np.ndarray

    def target_cloud(self):
        from .cloud import ParticleCloud

        return ParticleCloud(self.images)


def _mean_sq_grad(f, mu):
    g = f.grad_many(mu.points)
    return float(np.mean(np.sum(g**2, axis=1)))


def dual_interval(f, mu, penalty, c=None):
    """Search interval [l, u] for the dual variable.

    l sits one unit above the semiconvexity; u = l + sqrt(2C) with C = 8 L^2
    by default (callers may pass the penalty-matched C they can certify).
    The penalty must be strong enough at l: its conjugate's left derivative
    there may not exceed E[||grad f||^2] / (8 L^2).

    Raises:
        RegularizationTooWeak: the slope check fails (for the trust-region
            indicator the message reports the maximal admissible delta).
        IntervalEmpty: u <= l.
    """
    return _dual_interval(f, _mean_sq_grad(f, mu), penalty, c)


def _dual_interval(f, m2, penalty, c=None):
    """`dual_interval` given m2 = E_mu[||grad f||^2]."""
    l = f.semiconvexity + 1.0
    reg = penalty.regularization_at(l)
    lsm = f.smoothness
    need = m2 / (8.0 * lsm * lsm) if lsm > 0 else math.inf
    # the relative slack keeps this consistent with the radius pre-check in
    # `trust_region_step` when delta sits exactly on the admissible bound
    # (the two sides compute the same quantity along different float paths)
    if reg > need * (1.0 + 1e-12):
        max_delta = math.sqrt(m2) / (2.0 * lsm) if lsm > 0 else None
        hint = (
            f"; maximal admissible delta = {max_delta}"
            if isinstance(penalty, TrustRegionIndicator) and max_delta is not None
            else ""
        )
        raise RegularizationTooWeak(
            f"psi* slope {reg} at lam = {l} exceeds {need}{hint}",
            max_admissible=max_delta,
        )
    if c is None:
        c = 8.0 * lsm * lsm
    u = l + math.sqrt(2.0 * c)
    if u <= l:
        raise IntervalEmpty(f"dual interval ({l}, {u}) is empty")
    return l, u


def _penalty_matched_c(f, m2, penalty):
    reg = penalty.regularization_at(f.semiconvexity + 1.0)
    return m2 / reg if reg > 0 else None


def primal_dual_bisection(
    f, mu, penalty, eps, delta_prob, rng, stochastic=False, *, _m2=None
):
    """Bisection on the dual with a primal certificate at the returned point.

    Halves the interval on the sign of eta = g'(lam) - psi*'(lam), with the
    asymmetric acceptance threshold -eps_alg / max(lam - l, 1); on exit the
    right endpoint is returned and a full prox pass at it produces matching
    primal and dual values, so the reported gap is a true Fenchel-Young gap.

    Args:
        eps: target primal-dual gap; the internal tolerance is eps/(4 + l).
        delta_prob: total failure probability budget (split across the
            stochastic oracle calls; unused on the deterministic path).
        stochastic: use the sampled supergradient oracle instead of the
            full-batch one.
        _m2: E_mu[||grad f||^2] when the caller has already computed it.
    """
    m2 = _mean_sq_grad(f, mu) if _m2 is None else _m2
    c_pen = _penalty_matched_c(f, m2, penalty)
    l, u = _dual_interval(f, m2, penalty, c=c_pen)
    l0, u0, b = l, u, l
    eps_alg = eps / (4.0 + l)
    eps_prox = eps_alg / (2.0 * max(u - l, 1.0))

    _, gp_l = g_value_and_grad_fullbatch(f, mu, l, eps_prox)
    oracle_calls, samples = 1, mu.n
    big_b = max(penalty.smoothness_on(l, u), 4.0 * gp_l**2, 16.0 * m2**2, 1e-12)
    width = eps_alg / big_b
    steps = max(int(math.ceil(math.log2((u - l) / width))) + 1, 1) if u - l > width else 1
    delta_call = delta_prob / steps

    while u - l > width:
        lam = 0.5 * (l + u)
        if stochastic:
            samples += hp_sample_count(f, mu, lam, eps_alg, delta_call)
            eta = supergradient_hp(f, mu, lam, eps_alg, delta_call, rng)
        else:
            _, eta = g_value_and_grad_fullbatch(f, mu, lam, eps_prox)
            samples += mu.n
        oracle_calls += 1
        eta -= penalty.psi_star_deriv(lam)
        if eta < -eps_alg / max(lam - b, 1.0):
            u = lam
        else:
            l = lam

    lam_star = u
    dual, primal, gap, y, cbar = _report_values(f, mu, penalty, lam_star, eps_prox)
    samples += mu.n
    return DualSolveReport(
        lambda_star=lam_star,
        dual_value=dual,
        primal_value=primal,
        gap=gap,
        oracle_calls=oracle_calls,
        samples_drawn=samples,
        interval=(l0, u0),
        images=y,
        cost=cbar,
    )


def _report_values(f, mu, penalty, lam, eps_prox):
    """Primal and dual values sharing one prox pass (Fenchel-Young gap >= 0)."""
    y, theta, _, _ = agd_prox_batch(f, mu.points, lam, eps_prox)
    cbar = float(np.mean(theta))
    fbar = float(np.mean(f.eval_many(y)))
    dual = fbar + lam * cbar - penalty.psi_star(lam)
    primal = fbar + penalty.psi(cbar)
    return dual, primal, primal - dual, y, cbar


def stochastic_bisection(
    f,
    mu,
    penalty,
    eps,
    delta_prob,
    rng,
    stochastic=True,
    interval=None,
    oracle=None,
    b_bound=None,
):
    """Dual-only bisection with an early exit on a small supergradient.

    Follows the sign of eta = theta_g(lam) - Proj_{subgrad psi*(lam)}(theta_g)
    and stops as soon as |eta| <= eps / max(lam - l, 1) or the interval is
    narrower than eps / B, returning the last midpoint.  The report carries
    the dual value only (primal fields are None).

    `interval`, `oracle` and `b_bound` exist for plumbing tests with
    synthetic oracles; by default everything is derived from (f, mu).
    """
    m2 = _mean_sq_grad(f, mu) if interval is None or b_bound is None else None
    if interval is None:
        l, u = _dual_interval(f, m2, penalty, c=_penalty_matched_c(f, m2, penalty))
    else:
        l, u = interval
        if u <= l:
            raise IntervalEmpty(f"interval ({l}, {u}) is empty")
    l0, u0, b = l, u, l
    if b_bound is None:
        big_b = 2.0 * m2 + penalty.psi_star_deriv(u)
    else:
        big_b = b_bound
    big_b = max(big_b, 1e-12)
    width = eps / big_b
    steps = max(int(math.ceil(math.log2((u - l) / width))) + 1, 1) if u - l > width else 1
    delta_call = delta_prob / steps
    eps_prox = eps / (2.0 * max(u - l, 1.0))

    lam = 0.5 * (l + u)
    eta = math.inf
    oracle_calls, samples = 0, 0
    while abs(eta) > eps / max(lam - b, 1.0) and u - l > width:
        lam = 0.5 * (l + u)
        if oracle is not None:
            eta = float(oracle(lam))
        elif stochastic:
            samples += hp_sample_count(f, mu, lam, eps, delta_call)
            eta = supergradient_hp(f, mu, lam, eps, delta_call, rng)
        else:
            _, eta = g_value_and_grad_fullbatch(f, mu, lam, eps_prox)
            samples += mu.n
        oracle_calls += 1
        lo, hi = penalty.subgrad_interval(lam)
        eta -= min(max(eta, lo), hi)
        if eta > 0:
            l = lam
        else:
            u = lam

    if f is not None:
        gval, _ = g_value_and_grad_fullbatch(f, mu, lam, eps_prox)
        samples += mu.n
        dual = gval - penalty.psi_star(lam)
    else:
        dual = math.nan
    return DualSolveReport(
        lambda_star=lam,
        dual_value=dual,
        primal_value=None,
        gap=None,
        oracle_calls=oracle_calls,
        samples_drawn=samples,
        interval=(l0, u0),
    )


def mirror_ascent_envelope(interval, k, c2, d_bound, eps=0.0):
    """Suboptimality envelope (u-l) * (sqrt(2(C^2+D^2)/k) + eps) for the average iterate."""
    l, u = interval
    return (u - l) * (math.sqrt(2.0 * (c2 + d_bound**2) / k) + eps)


def mirror_ascent(
    f,
    mu,
    penalty,
    interval,
    k,
    rng,
    oracle=None,
    c2=None,
    stochastic=False,
    eps_oracle=1e-2,
    delta_prob=0.1,
    eps_prox=1e-9,
):
    """Projected supergradient ascent on the dual with a fixed step.

    Runs k steps from the left endpoint with step (u-l)/sqrt(2k(C^2+D^2)),
    where C^2 bounds the oracle's second moment and D the penalty slope at
    the right endpoint, and returns the iterate average (whose expected
    suboptimality obeys `mirror_ascent_envelope`).

    Args:
        oracle: optional lam -> supergradient-estimate override.
        c2: optional second-moment bound; derived from the cloud's plug-in
            fourth moment when omitted.

    Returns:
        (lambda_bar, trace) with trace arrays "lambda" and "eta".

    Raises:
        IntervalEmpty: the interval has u <= l.
    """
    l, u = interval
    if u <= l:
        raise IntervalEmpty(f"interval ({l}, {u}) is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if c2 is None:
        g = f.grad_many(mu.points)
        m4 = float(np.mean(np.sum(g**2, axis=1) ** 2))
        c2 = 256.0 * m4 / (l - f.semiconvexity) ** 4
    d_bound = penalty.psi_star_deriv(u)
    step = (u - l) / math.sqrt(2.0 * k * (c2 + d_bound**2))

    lam = l
    lams = np.empty(k)
    etas = np.empty(k)
    for i in range(k):
        lams[i] = lam
        if oracle is not None:
            est = float(oracle(lam))
        elif stochastic:
            est = supergradient_hp(f, mu, lam, eps_oracle, delta_prob / k, rng)
        else:
            _, est = g_value_and_grad_fullbatch(f, mu, lam, eps_prox)
        lo, hi = penalty.subgrad_interval(lam)
        eta = est - min(max(est, lo), hi)
        etas[i] = eta
        lam = min(max(lam + step * eta, l), u)
    return float(np.mean(lams)), {"lambda": lams, "eta": etas}


def trust_region_step(f, mu, delta, eps, gamma, rng, stochastic=False):
    """Approximately minimize E_nu[f] over clouds within transport distance delta of mu.

    Solves the indicator-penalized dual by bisection, then certifies primal
    feasibility from the transported cost of the bisection's certifying
    prox pass (nudging lam up a few times, one prox pass each, if prox error
    leaves the cost a hair above delta^2/2).

    Returns:
        (sampler, report): the sampler couples each atom to its prox image;
        its target cloud realizes the step.

    Raises:
        DeltaTooLarge: delta above the admissible curvature bound
            ||grad f||_{L2(mu)} / (2 L), or a zero gradient field.
        InfeasiblePrimal: feasibility could not be certified after nudging.
    """
    m2 = _mean_sq_grad(f, mu)
    msgn = math.sqrt(m2)
    if msgn == 0.0:
        raise DeltaTooLarge(
            "gradient field vanishes on the cloud; no descent direction",
            admissible=0.0,
        )
    if f.smoothness > 0:
        bound = msgn / (2.0 * f.smoothness)
        if delta > bound:
            raise DeltaTooLarge(
                f"delta = {delta} exceeds admissible bound {bound}", admissible=bound
            )
    penalty = TrustRegionIndicator(delta, feas_slack=1e-6)
    rep = primal_dual_bisection(
        f, mu, penalty, eps, gamma, rng, stochastic=stochastic, _m2=m2
    )

    l0, u0 = rep.interval
    eps_prox = (eps / (4.0 + l0)) / (2.0 * max(u0 - l0, 1.0))
    lam = rep.lambda_star
    cost_cap = 0.5 * delta**2 * (1.0 + 1e-6)
    for _ in range(5):
        if rep.cost <= cost_cap:
            break
        lam *= 1.05
        dual, primal, gap, y, cbar = _report_values(f, mu, penalty, lam, eps_prox)
        rep = replace(
            rep,
            lambda_star=lam,
            dual_value=dual,
            primal_value=primal,
            gap=gap,
            images=y,
            cost=cbar,
        )
    if rep.cost > cost_cap:
        raise InfeasiblePrimal(
            f"transported cost {rep.cost} above bound {0.5 * delta**2} after nudging",
            cost=rep.cost,
            bound=0.5 * delta**2,
        )
    return PushforwardSampler(lam=lam, source=mu, images=rep.images), rep


def primal_dual_gap(f, mu, penalty, lam, eps_inner):
    """Full-batch primal-dual gap at a given lam.

    Raises:
        InfeasiblePrimal: the transported cost lands where psi is infinite.
        LambdaTooSmall: lam at or below the semiconvexity.
    """
    if lam <= f.semiconvexity:
        raise LambdaTooSmall(f"lam = {lam} <= semiconvexity {f.semiconvexity}")
    dual, primal, gap, _, cbar = _report_values(f, mu, penalty, lam, eps_inner)
    if not math.isfinite(primal):
        raise InfeasiblePrimal(
            f"transported cost {cbar} is outside the penalty's finite domain",
            cost=cbar,
            bound=0.5 * penalty.delta**2 if hasattr(penalty, "delta") else None,
        )
    return gap
