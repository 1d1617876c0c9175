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

import numpy as np

from .cloud import ParticleCloud, mean_squared_gradient
from .errors import (
    DeltaTooLarge,
    GapNotCertified,
    IntervalEmpty,
    LambdaTooSmall,
    RadiusOutOfRange,
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

    Raises:
        ValueError: delta is not positive.
        RadiusOutOfRange: delta^2 / 2 overflows.
    """

    def __init__(self, delta):
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        try:
            self.cost_bound = 0.5 * self.delta**2
        except OverflowError:
            msg = f"delta = {self.delta}: delta^2 / 2 overflows"
            raise RadiusOutOfRange(msg, delta=self.delta) from None

    def psi(self, x):
        return 0.0 if x <= self.cost_bound else math.inf

    def psi_star(self, lam):
        return self.cost_bound * max(lam, 0.0)

    def psi_star_deriv(self, lam):
        """Right derivative of psi*."""
        return self.cost_bound if lam >= 0.0 else 0.0

    def smoothness_on(self, l, u):
        return 0.0  # affine on lam > 0


class PowerPenalty:
    """Power penalty psi(x) = x^(1+alpha)/(1+alpha) on the cost axis x >= 0.

    Conjugate psi*(lam) = (alpha/(1+alpha)) * max(lam, 0)^((1+alpha)/alpha),
    smooth on any interval bounded away from the origin.
    """

    def __init__(self, alpha):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def psi(self, x):
        a = self.alpha
        return max(x, 0.0) ** (1.0 + a) / (1.0 + a)

    def psi_star(self, lam):
        a = self.alpha
        return a / (1.0 + a) * max(lam, 0.0) ** ((1.0 + a) / a)

    def psi_star_deriv(self, lam):
        return max(lam, 0.0) ** (1.0 / self.alpha)

    def smoothness_on(self, l, u):
        # psi*'' is monotone, so its max over [l, u] sits at an endpoint.
        a = self.alpha
        lo = (1.0 / a) * l ** (1.0 / a - 1.0) if l > 0 else math.inf
        hi = (1.0 / a) * u ** (1.0 / a - 1.0) if u > 0 else math.inf
        return max(lo, hi)


@dataclass(frozen=True)
class DualSolveReport:
    """One certifying prox pass at `lambda_star`, as a dual solve returns it.

    `images` are the prox images of the atoms, read-only, and `cost` their
    mean half squared displacement; the primal and dual values share them,
    and `gap` is their Fenchel-Young gap.  `oracle_calls` counts a solve's
    prox passes; a lone pass reports 1.

    Raises:
        WeakDualityViolated: the gap is below -1e-6.
    """

    lambda_star: float
    dual_value: float
    primal_value: float
    gap: float
    oracle_calls: int
    images: np.ndarray = field(repr=False, compare=False)
    cost: float

    def __post_init__(self):
        if not self.gap >= -1e-6:
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
    `target_cloud` materializes the second marginal of the coupling: a
    cloud on the images themselves, made read-only, with no re-check and
    no copy, since `agd_prox_batch` returns only rows whose certificate
    bound is finite.
    """

    images: np.ndarray

    def target_cloud(self):
        return ParticleCloud.adopt(self.images)


def dual_interval(f, mu, penalty, c=None):
    """Dual interval [l, u], which sizes the bisection's tolerances; public
    because acceptance gates 5 and 7 build `mirror_ascent`'s interval with it.

    l sits one unit above the semiconvexity; u = l + sqrt(2C) with C = 8 L^2
    by default (callers may pass the penalty-matched C they can certify).
    The penalty must be strong enough at l: its conjugate's slope there may
    not exceed E[||grad f||^2] / (8 L^2).

    Raises:
        RegularizationTooWeak: the slope check fails (for the trust-region
            indicator the message reports the maximal admissible delta).
        IntervalEmpty: u <= l, or u is NaN.
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
    if not u > l:
        raise IntervalEmpty(f"dual interval ({l}, {u}) is empty")
    return l, u


def _slope(f, mu, lam, eps, eps_prox, delta, rng, m4):
    """`mirror_ascent`'s estimate of g'(lam): sampled at accuracy eps and
    confidence delta given the cloud's gradient fourth moment m4 (computed
    once per run) while its count K is below the n atoms, else one exact
    full-batch prox pass at accuracy eps_prox."""
    k = None if m4 is None else hp_sample_count(f, mu, lam, eps, delta, m4=m4)
    if k is not None and k < mu.n:
        return supergradient_hp(f, mu, lam, eps, delta, rng, m4=m4)
    return g_value_and_grad_fullbatch(f, mu, lam, eps_prox)[1]


def _slope_crossing(penalty, m2, s, u):
    """The lam in (max(-s, 0), u] where m2 / (2 (lam + s)^2) = psi*'(lam).

    With y = prox(x), grad f(x) = (lam I + H)(x - y), H the mean Hessian of
    f on [y, x], whose spectrum lies in [-rho, c] (c the semiconcavity).
    So ||grad f|| / (lam + c) <= ||x - prox(x)|| <= ||grad f|| / (lam - rho),
    and m2 / (2 (lam + c)^2) <= g'(lam) <= m2 / (2 (lam - rho)^2) with m2 =
    E||grad f||^2: h = g' - psi*' is >= 0 at the crossing for s = c and <= 0
    at the one for s = -rho.  The left side falls and psi*' does not, so the
    crossing is unique: sqrt(m2) / delta - s under the indicator, found by
    bisection otherwise, below u = rho + 1 + sqrt(2 m2 / psi*'(rho + 1)).
    """
    if isinstance(penalty, TrustRegionIndicator):
        return math.sqrt(m2) / penalty.delta - s
    lo, hi = max(-s, 0.0), u
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if 2.0 * (mid + s) ** 2 * penalty.psi_star_deriv(mid) < m2:
            lo = mid
        else:
            hi = mid
    return hi


def _secular(penalty, lam, cbar):
    """r = psi*'(lam)^(-1/2) - cbar^(-1/2), which has h's sign; nan where
    cbar or psi*'(lam) is 0."""
    slope = penalty.psi_star_deriv(lam)
    return slope**-0.5 - cbar**-0.5 if min(cbar, slope) > 0.0 else math.nan


def root_estimate(penalty, m2, lam, cbar):
    """The root that a pass at lam with mean cost cbar predicts: where r
    crosses zero along the slope -sqrt(2 / m2) that r has for linear and
    quadratic f under the indicator.  Under the indicator, as a ratio to
    lam_hat = sqrt(m2) / delta, it is lam delta / sqrt(m2) + 1 - delta /
    sqrt(2 cbar).  Nan where `_secular` is."""
    return lam - _secular(penalty, lam, cbar) / -math.sqrt(2.0 / m2)


def pass_tolerance(eps, lam):
    """Row tolerance (3/2) eps / max(lam, 1) of the search's pass at lam."""
    return 1.5 * eps / max(lam, 1.0)


def primal_dual_bisection(f, mu, penalty, eps, root_hint=None):
    """Bracketing search on the dual with a primal certificate at the returned point.

    Returns a full prox pass with h(lam) = g'(lam) - psi*'(lam) <= 0, which
    is feasible (cbar <= delta^2 / 2 under the indicator), and a true gap
    within eps.  It searches (rho, hi], hi the `_slope_crossing` at s =
    -rho, where h <= 0 by rho-semiconvexity alone.  The first pass is at
    the crossing at s = 0, or at `root_hint` where it lies in (rho, hi);
    the second at a Newton step on r = psi*'^(-1/2) - cbar^(-1/2), which
    has h's sign, to its `root_estimate`, kept above the crossing at s = c
    (the semiconcavity, which holds only where c covers the cloud); later
    ones at secants on r through the last two passes, kept above the last
    pass with h > 0 (or rho).  Each point, hi and the hint included, is
    stepped past the root by a gap of at most eps / 16; the midpoint
    replaces an undefined one.  It raises at N + 2 passes, N one more than
    the halvings from (rho, hi] to the width (eps / 8) / B, B = max(psi*
    smoothness, 16 m2^2, 1e-12), or ulp(hi) if wider; m2 = E||grad f||^2.

    A pass at lam solves its rows to `pass_tolerance`, so it misreads its
    gap by at most 3 eps / 4 and, past the root, reads at most 13 eps / 16,
    where the search stops.  Its rows' certified d <= sqrt(tolerance) / 2
    add at most (lam - rho) d^2 / 2 <= 3 eps / 16 of dual slack: the true
    gap is at most eps.

    Args:
        eps: target primal-dual gap of the returned pass.
        root_hint: predicted root for the first pass.  None, or a hint
            stepped past the root to no point of (rho, hi) (nan, inf,
            <= rho, >= hi), leaves that pass at the crossing, and so every
            bit of the search.

    Raises:
        ValueError: eps outside (0, inf).
        RegularizationTooWeak, IntervalEmpty: as `dual_interval`.
        RadiusOutOfRange: hi or the bisection width is not finite, as
            where psi*' underflows (carries delta, if any, and lam_hat),
            or the pass tolerance at hi underflows to 0 (carries delta and eps).
        GapNotCertified: the search reaches its cap or a collapsed bracket.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    m2 = mean_squared_gradient(mu, f)
    rho = f.semiconvexity
    reg = penalty.psi_star_deriv(rho + 1.0)
    l, u = _dual_interval(f, m2, penalty, c=m2 / reg if reg > 0 else None)
    step_gap, stop = eps / 8.0, 13.0 / 16.0 * eps  # the split of eps above
    delta = getattr(penalty, "delta", None)

    def past_root(lam):  # gap <= step_gap / 2: |cbar'| <= 2 cbar / (lam - rho)
        den = 4.0 * lam * penalty.psi_star_deriv(lam)  # 0 where psi*' underflows
        return lam + step_gap * (lam - rho) / den if den > 0.0 else math.inf

    lam, hi = (_slope_crossing(penalty, m2, s, u) for s in (0.0, -rho))
    hi = past_root(hi)
    # No bracket shrinks below ulp(hi), and 16 m2^2 may be inf: floor the width there.
    b = max(penalty.smoothness_on(l, u), 16.0 * m2 * m2, 1e-12)
    width = max(step_gap / b, math.ulp(hi))
    if not (hi < math.inf and width < math.inf):  # psi*' underflows past lam_hat
        msg = f"dual bracket (rho, {hi}] at delta = {delta}, lam_hat = {lam} is not finite"
        raise RadiusOutOfRange(msg, delta=delta, lam_hat=lam)
    if not pass_tolerance(eps, hi) > 0.0:  # a tiny eps over a bracket as wide as 1 / delta
        msg = f"prox tolerance underflows to 0 at delta = {delta}, eps = {eps} on ({rho}, {hi}]"
        raise RadiusOutOfRange(msg, delta=delta, eps=eps)
    steps = math.ceil(math.log2(max(hi - rho, width) / width)) + 1
    guess = math.nan if root_hint is None else past_root(root_hint)
    lam = guess if rho < guess < hi else past_root(lam)
    left, right = rho, hi
    last = None
    oracle_calls = 0
    while True:
        oracle_calls += 1
        rep = _prox_pass(f, mu, penalty, lam, pass_tolerance(eps, lam), oracle_calls)
        h, r = rep.cost - penalty.psi_star_deriv(lam), _secular(penalty, lam, rep.cost)
        if h <= 0.0 and rep.gap <= stop:
            break
        if h > 0.0:
            left = lam
        else:
            right = lam
        # left (else rho) bounds the root below; only the Newton step is
        # also kept above the crossing at s = c, so only a second pass computes it.
        floor = left
        if last is None:
            floor = max(_slope_crossing(penalty, m2, f.semiconcavity, u), left)
            s = root_estimate(penalty, m2, lam, rep.cost)
        else:  # each pass lies inside (floor, right): a new lam
            slope = (r - last[1]) / (lam - last[0])
            s = lam - r / slope if slope < 0.0 else math.nan
        last = lam, r
        if not math.isnan(s):
            s = min(max(s, floor), right)
            lam = past_root(s) if s > rho else rho
        lam = lam if floor < lam < right else 0.5 * (floor + right)
        if oracle_calls == steps + 2 or not floor < lam < right:
            msg = f"full-batch search ends at lam = {rep.lambda_star}, gap {rep.gap}"
            raise GapNotCertified(msg, lam=rep.lambda_star, gap=rep.gap, eps=stop)
    return rep


def _prox_pass(f, mu, penalty, lam, eps_prox, oracle_calls):
    """Report of one prox pass at lam: primal and dual values sharing its
    images, and their gap in its Fenchel-Young form psi(cbar) + psi*(lam) -
    lam cbar (primal - dual would cancel the shared mean f(y) into roundoff
    of either sign).  It carries the given pass count.

    The images are made read-only before f sees them, so a witness that
    remembers per-cloud work (`CloudMemo`) keeps it for the cloud adopted
    on them."""
    y, theta, _, _ = agd_prox_batch(f, mu.points, lam, eps_prox)
    y.setflags(write=False)
    cbar = float(np.add.reduce(theta) / mu.n)
    fbar = float(np.add.reduce(f.eval_many(y)) / mu.n)
    psi, psi_star = penalty.psi(cbar), penalty.psi_star(lam)
    return DualSolveReport(
        lambda_star=lam,
        dual_value=fbar + lam * cbar - psi_star,
        primal_value=fbar + psi,
        gap=psi + psi_star - lam * cbar,
        oracle_calls=oracle_calls,
        images=y,
        cost=cbar,
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
):
    """Projected supergradient ascent on the dual with a fixed step.

    Runs k steps from the left endpoint with step (u-l)/sqrt(2k(C^2+D^2)),
    where C^2 bounds the oracle's second moment and D the penalty slope at
    the right endpoint, and returns the iterate average (whose expected
    suboptimality obeys `mirror_ascent_envelope`).  It steps along
    est - psi*'(lam), a supergradient also at psi*'s kink at 0, where the
    projection onto l >= 0 absorbs it.  The full-batch oracle solves each
    prox to accuracy 1e-9.

    Args:
        oracle: optional lam -> supergradient-estimate override.
        c2: optional second-moment bound; derived from the cloud's plug-in
            fourth moment when omitted.

    Returns:
        (lambda_bar, trace) with the trace array "lambda" of the iterates.

    Raises:
        IntervalEmpty: the interval has u <= l, or an end that is NaN.
        LambdaTooSmall: f is given and l does not exceed its semiconvexity.
    """
    l, u = interval
    if not u > l:
        raise IntervalEmpty(f"interval ({l}, {u}) is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if f is not None and l <= f.semiconvexity:
        raise LambdaTooSmall(
            f"left end l = {l} must exceed semiconvexity {f.semiconvexity}"
        )
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
    for i in range(k):
        lams[i] = lam
        if oracle is not None:
            est = float(oracle(lam))
        else:
            est = _slope(f, mu, lam, eps_oracle, 1e-9, delta_prob / k, rng, sampled_m4)
        lam = min(max(lam + step * (est - penalty.psi_star_deriv(lam)), l), u)
    return float(np.mean(lams)), {"lambda": lams}


def trust_region_step(f, mu, delta, eps, root_hint=None):
    """Approximately minimize E_nu[f] over clouds within transport distance delta of mu.

    Solves the indicator-penalized dual by `primal_dual_bisection` to a
    true gap within eps and moves the atoms to the images of its certifying
    prox pass, which its h <= 0 puts in the ball; no pass runs after it.
    The radius is admitted by the solver's own interval check, so the gradient field
    is evaluated over the atoms once per step.  `root_hint` goes to the
    search: a predicted dual root, where a good one saves it its second
    pass.

    Returns:
        (sampler, report): the sampler couples each atom to its prox image;
        its target cloud realizes the step.

    Raises:
        DeltaTooLarge: delta above the admissible curvature bound
            ||grad f||_{L2(mu)} / (2 L) (up to a 1e-12 relative slack on
            delta^2), or a zero gradient field (admissible 0.0).
        ValueError, GapNotCertified: as `primal_dual_bisection`.
    """
    penalty = TrustRegionIndicator(delta)
    try:
        rep = primal_dual_bisection(f, mu, penalty, eps, root_hint=root_hint)
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
    return PushforwardSampler(images=rep.images), rep

