"""One-dimensional dual ascent for penalized transport subproblems.

The primal problem couples a cloud mu to a new measure nu while paying a
penalty psi on the transported cost:

    minimize   E_nu[f]  +  psi( E_pi[(1/2)||y - x||^2] )

Its dual over the single scalar lam is g(lam) - psi*(lam) with g the
Moreau-envelope mean of the `moreau` module — concave, one-dimensional, and
solvable by a bracketing search or mirror ascent.  The trust-region
specialization (psi an indicator of [0, delta^2/2]) is the inner step of
the outer Frank-Wolfe loop.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cloud import ParticleCloud, mean_squared_gradient
from .errors import (
    DeltaTooLarge,
    InfeasiblePrimal,
    IntervalEmpty,
    RegularizationTooWeak,
    WeakDualityViolated,
)
from .moreau import (
    agd_prox_batch,
    g_value_and_grad_fullbatch,
    gradient_fourth_moment,
    hp_sample_count,
    supergradient_hp,
)


class TrustRegionIndicator:
    """Indicator penalty of the cost interval [0, delta^2/2].

    psi(x) = 0 on the interval, +inf beyond it; psi*(lam) =
    (delta^2/2) * max(lam, 0) is its exact conjugate, so every
    Fenchel-Young gap psi(x) + psi*(lam) - lam x is >= 0.  Constraining the
    transported cost to delta^2/2 constrains the transport distance to delta.
    """

    def __init__(self, delta):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    def psi(self, x):
        return 0.0 if x <= 0.5 * self.delta**2 else math.inf

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


@dataclass(frozen=True)
class DualSolveReport:
    """Outcome of one dual solve; primal fields are None for dual-only solvers.

    `images` and `cost` are the prox images of the atoms at `lambda_star`
    and their mean half squared displacement, from the prox pass that
    certified the primal value (None when no such pass ran).
    `oracle_calls` counts every certifying prox pass and sampled slope.

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

    `images[i]` is the prox of atom i of the stepped cloud, so
    `target_cloud` materializes the second marginal of the coupling.
    """

    images: np.ndarray

    def target_cloud(self):
        return ParticleCloud(self.images)


def dual_interval(f, mu, penalty, c=None):
    """Search interval [l, u] for the dual variable.  Public because
    acceptance gates 5 and 7 build `mirror_ascent`'s interval with it.

    l sits one unit above the semiconvexity; u = l + sqrt(2C) with C = 8 L^2
    by default (callers may pass the penalty-matched C they can certify).
    The penalty must be strong enough at l: its conjugate's slope there may
    not exceed E[||grad f||^2] / (8 L^2).

    Raises:
        RegularizationTooWeak: the slope check fails (for the trust-region
            indicator the message reports the maximal admissible delta).
        IntervalEmpty: u <= l.
    """
    return _dual_interval(f, mean_squared_gradient(mu, f), penalty, c)


def _dual_interval(f, m2, penalty, c=None):
    """`dual_interval` given m2 = E_mu[||grad f||^2]."""
    l = f.semiconvexity + 1.0
    reg = penalty.psi_star_deriv(l)
    lsm = f.smoothness
    need = m2 / (8.0 * lsm * lsm) if lsm > 0 else math.inf
    # The relative slack admits a trust-region radius set exactly to the
    # reported bound sqrt(m2) / (2 L): squared and halved back into psi*'s
    # slope, it can land a few ulps above m2 / (8 L^2).
    if reg > need * (1.0 + 1e-12):
        max_delta = math.sqrt(m2) / (2.0 * lsm)  # need < inf, so L > 0
        hint = (
            f"; maximal admissible delta = {max_delta}"
            if isinstance(penalty, TrustRegionIndicator)
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


def _slope(f, mu, lam, eps, eps_prox, delta, rng, m4):
    """(estimate of g'(lam), samples drawn): sampled at accuracy eps and
    confidence delta given the cloud's gradient fourth moment m4 (computed
    once per solve) while its count K is below the n atoms, else one exact
    full-batch prox pass at accuracy eps_prox, charged n samples."""
    k = None if m4 is None else hp_sample_count(f, mu, lam, eps, delta, m4=m4)
    if k is not None and k < mu.n:
        return supergradient_hp(f, mu, lam, eps, delta, rng, m4=m4), k
    _, slope = g_value_and_grad_fullbatch(f, mu, lam, eps_prox)
    return slope, mu.n


def primal_dual_bisection(f, mu, penalty, eps, delta_prob, rng, stochastic=False):
    """Bracketing search on the dual with a primal certificate at the returned point.

    Keeps [l, u] on the sign of h(lam) = g'(lam) - psi*'(lam) and returns u
    with a full prox pass at u, whose matching primal and dual values make
    the reported gap a true Fenchel-Young gap.  On the full-batch path every
    point is such a pass (the name is historical): Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971) keeps h(l) > 0 >= h(u) but takes its
    secant from r = psi*'^(-1/2) - cbar^(-1/2), which has h's sign and is
    affine in lam where cbar = K / (rho' + lam)^2 (linear and quadratic
    witnesses under the indicator).  Each secant point steps past the root
    by a gap of eps_alg / 2, so it lands with h <= 0 despite roundoff; the
    midpoint replaces a point outside (l, u) or an undefined secant (cbar or
    psi*' zero).  It stops as soon as u's pass certifies a gap <= eps_alg,
    on a collapsed bracket u = l (at once when h(l) <= 0: l is the answer),
    and otherwise two passes past the count plain bisection needs to reach
    the a-priori width eps_alg / B, B = max(psi* smoothness, 16 m2^2, 1e-12),
    m2 = E||grad f||^2.  That width does not stop it: on a tiny field it is
    too coarse for the certificate.  The sampled path bisects to that
    width, moving u on h < -eps_alg / max(lam - l, 1), and passes at u;
    when that pass is infeasible (misled samples) it certifies the right end
    u0, where g'(u0) < psi*'(u0) / 4.

    Args:
        eps: target primal-dual gap; the internal tolerance is
            eps_alg = eps/(4 + l).
        delta_prob: total failure probability budget (split across the
            stochastic oracle calls; unused on the deterministic path).
        stochastic: use the sampled supergradient oracle instead of the
            full-batch one.

    Raises:
        RegularizationTooWeak, IntervalEmpty: as `dual_interval`.
    """
    m2 = mean_squared_gradient(mu, f)
    reg = penalty.psi_star_deriv(f.semiconvexity + 1.0)
    l, u = _dual_interval(f, m2, penalty, c=m2 / reg if reg > 0 else None)
    l0, u0 = l, u
    eps_alg = eps / (4.0 + l)
    eps_prox = eps_alg / (2.0 * max(u - l, 1.0))
    width = eps_alg / max(penalty.smoothness_on(l, u), 16.0 * m2**2, 1e-12)
    steps = max(math.ceil(math.log2((u - l) / width)) + 1, 1)
    oracle_calls = samples = 0

    def full_pass(lam):
        nonlocal oracle_calls, samples
        oracle_calls, samples = oracle_calls + 1, samples + mu.n
        values = _report_values(f, mu, penalty, lam, eps_prox)
        cbar, slope = values[4], penalty.psi_star_deriv(lam)
        r = slope**-0.5 - cbar**-0.5 if min(cbar, slope) > 0.0 else math.nan
        return values, cbar - slope, r

    if stochastic:
        m4 = gradient_fourth_moment(f, mu)
        while u - l > width:
            lam = 0.5 * (l + u)
            h, drawn = _slope(f, mu, lam, eps_alg, eps_prox, delta_prob / steps, rng, m4)
            oracle_calls, samples = oracle_calls + 1, samples + drawn
            if h - penalty.psi_star_deriv(lam) < -eps_alg / max(lam - l0, 1.0):
                u = lam
            else:
                l = lam
        hi = full_pass(u)[0]
        if not math.isfinite(hi[1]):
            # u0 - rho > sqrt(2 m2 / psi*'(l)) and g'(lam) <= m2 / (2 (lam - rho)^2)
            u, hi = u0, full_pass(u0)[0]
    else:
        hi, h_l, r_l = full_pass(l)
        r_u, kept = 0.0, None  # kept: the end the last step left in place
        if h_l > 0.0:
            hi, _, r_u = full_pass(u)
        else:  # the dual peaks at l
            u = l
        # hi[2] is the gap of u's pass; plain bisection makes steps + 1 passes.
        while u > l and hi[2] > eps_alg and oracle_calls < steps + 3:
            lam = l + r_l * (u - l) / (r_l - r_u) if r_l > r_u else l
            # Past the root by a step whose gap is <= eps_alg / 2, since
            # |cbar'| <= 2 cbar / (lam - rho) and gap <= lam (psi*' - cbar).
            step = eps_alg * (lam - f.semiconvexity) / (4.0 * lam)
            lam += step / penalty.psi_star_deriv(lam)
            lam = lam if l < lam < u else 0.5 * (l + u)
            values, h, r = full_pass(lam)
            if h <= 0.0:
                r_l *= 0.5 if kept == "l" else 1.0  # Illinois: l kept twice running
                u, hi, r_u, kept = lam, values, r, "l"
            else:
                r_u *= 0.5 if kept == "u" else 1.0
                l, r_l, kept = lam, r, "u"

    dual, primal, gap, y, cbar = hi
    return DualSolveReport(
        lambda_star=u,
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
    """Primal and dual values sharing one prox pass, and their gap in its
    Fenchel-Young form psi(cbar) + psi*(lam) - lam cbar (primal - dual would
    cancel the shared mean f(y) into roundoff of either sign)."""
    y, theta, _, _ = agd_prox_batch(f, mu.points, lam, eps_prox)
    cbar = float(np.mean(theta))
    fbar = float(np.mean(f.eval_many(y)))
    psi, psi_star = penalty.psi(cbar), penalty.psi_star(lam)
    gap = psi + psi_star - lam * cbar
    return fbar + lam * cbar - psi_star, fbar + psi, gap, y, cbar


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
):
    """Projected supergradient ascent on the dual with a fixed step.

    Runs k steps from the left endpoint with step (u-l)/sqrt(2k(C^2+D^2)),
    where C^2 bounds the oracle's second moment and D the penalty slope at
    the right endpoint, and returns the iterate average (whose expected
    suboptimality obeys `mirror_ascent_envelope`).  The full-batch oracle
    solves each prox to accuracy 1e-9.

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
    m4 = None
    if c2 is None or (stochastic and oracle is None):
        m4 = gradient_fourth_moment(f, mu)
    if c2 is None:
        c2 = 256.0 * m4 / (l - f.semiconvexity) ** 4
    sampled_m4 = m4 if stochastic else None
    d_bound = penalty.psi_star_deriv(u)
    step = (u - l) / math.sqrt(2.0 * k * (c2 + d_bound**2))

    lam = l
    lams = np.empty(k)
    etas = np.empty(k)
    for i in range(k):
        lams[i] = lam
        if oracle is not None:
            est = float(oracle(lam))
        else:
            est, _ = _slope(
                f, mu, lam, eps_oracle, 1e-9, delta_prob / k, rng, sampled_m4
            )
        lo, hi = penalty.subgrad_interval(lam)
        eta = est - min(max(est, lo), hi)
        etas[i] = eta
        lam = min(max(lam + step * eta, l), u)
    return float(np.mean(lams)), {"lambda": lams, "eta": etas}


def trust_region_step(f, mu, delta, eps, gamma, rng, stochastic=False):
    """Approximately minimize E_nu[f] over clouds within transport distance delta of mu.

    Solves the indicator-penalized dual by `primal_dual_bisection` and moves
    the atoms to the images of its certifying prox pass, which lies in the
    ball on both oracle paths; no pass runs after the search.  The radius
    is admitted by the solver's own interval check, so the gradient field
    is evaluated over the atoms once per step.  When h(l) <= 0 (for a
    linear f, |a| <= delta) the step is the prox at l: shorter than delta,
    with a gap l (delta^2/2 - cost) that can exceed eps.

    Returns:
        (sampler, report): the sampler couples each atom to its prox image;
        its target cloud realizes the step.

    Raises:
        DeltaTooLarge: delta above the admissible curvature bound
            ||grad f||_{L2(mu)} / (2 L) (up to a 1e-12 relative slack on
            delta^2), or a zero gradient field (admissible 0.0).
        InfeasiblePrimal: the certifying pass lies outside the ball.
    """
    penalty = TrustRegionIndicator(delta)
    try:
        rep = primal_dual_bisection(
            f, mu, penalty, eps, gamma, rng, stochastic=stochastic
        )
    except RegularizationTooWeak as exc:
        bound = exc.max_admissible
        raise DeltaTooLarge(
            f"delta = {delta} exceeds admissible bound {bound}", admissible=bound
        ) from exc
    except IntervalEmpty as exc:
        # With L = 0 a zero field matches the penalty with width m2/reg = 0.
        raise DeltaTooLarge(
            "gradient field vanishes on the cloud; no descent direction",
            admissible=0.0,
        ) from exc
    if penalty.psi(rep.cost) != 0.0:
        raise InfeasiblePrimal(
            f"transported cost {rep.cost} above bound {0.5 * delta**2}",
            cost=rep.cost,
            bound=0.5 * delta**2,
        )
    return PushforwardSampler(images=rep.images), rep


def primal_dual_gap(f, mu, penalty, lam, eps_inner):
    """Full-batch primal-dual gap at a given lam.

    Raises:
        InfeasiblePrimal: the transported cost lands where psi is infinite.
        LambdaTooSmall: lam at or below the semiconvexity (from the prox).
    """
    dual, primal, gap, _, cbar = _report_values(f, mu, penalty, lam, eps_inner)
    if not math.isfinite(primal):
        raise InfeasiblePrimal(
            f"transported cost {cbar} is outside the penalty's finite domain",
            cost=cbar,
            bound=0.5 * penalty.delta**2 if hasattr(penalty, "delta") else None,
        )
    return gap
