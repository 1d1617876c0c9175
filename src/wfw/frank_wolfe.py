"""Outer loop: conditional-gradient descent over particle clouds.

Each iteration asks the functional for a witness model, evaluates the
witness-gradient norm s exactly over the current cloud, stops once s falls to
the threshold r, and otherwise moves the cloud by a trust-region step of radius

    delta = min(beta1, beta2 * s, beta3 * s^(1/alpha))

with inner tolerance zeta = delta * eps_tilde.  The schedule constants come
from the target accuracy via `FWConfig.from_schedule`.
"""

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

from .cloud import CloudMemo, mean_squared_gradient_norm
from .dual_solvers import TrustRegionIndicator, pass_tolerance, root_estimate, trust_region_step
from .errors import DeltaTooLarge
from .moreau import SmoothObjective


@dataclass(frozen=True)
class FWConfig:
    """Step-size multipliers, stopping threshold, and error budgets: eps_hat
    for the witness model, eps_tilde for the step's inner tolerance."""

    beta1: float
    beta2: float
    beta3: float
    r: float
    eps_hat: float
    eps_tilde: float
    k_max: int = 500
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # Each check is false for NaN, so a NaN field is named here.
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        for name in ("beta1", "beta2", "beta3", "eps_hat", "eps_tilde"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.r >= 0.0:
            raise ValueError(f"stopping threshold r must be nonnegative, got {self.r}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    @classmethod
    def from_schedule(
        cls,
        tau,
        theta,
        big_t,
        alpha,
        delta1,
        delta2,
        smoothness,
        eps,
        k_max=500,
        seed=0,
    ):
        """Derive the multipliers and budgets from problem constants.

        Args:
            tau, theta: gradient-domination constants of the functional
                (tau * (J - J*)^theta <= gradient norm).
            big_t, alpha: Holder constants of the functional's curvature.
            delta1, delta2: locality radii capping the first multiplier.
            smoothness: witness gradient Lipschitz bound L.
            eps: target objective accuracy.

        A zero smoothness (a constant witness gradient) leaves the
        gradient-scaled cap off: beta2 = inf.  Inputs are refused whose step
        at s = r, the smallest a run takes, the dual cannot solve.
        """
        # Checked before any division; each check is false for NaN.
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        positive = dict(tau=tau, big_t=big_t, delta1=delta1, delta2=delta2, eps=eps)
        for name, value in positive.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not abs(theta) < math.inf:
            raise ValueError(f"theta must be finite, got {theta}")
        if not smoothness >= 0.0:
            raise ValueError(f"smoothness must be nonnegative, got {smoothness}")
        alpha_star = (1.0 + alpha) / alpha
        try:  # the stopping threshold; a float power that overflows raises
            r = 0.5 * tau * eps**theta
        except OverflowError:
            r = math.inf
        if not (0.0 < r / (4.0 * alpha_star) and r < math.inf):  # eps_tilde > 0
            raise ValueError(f"tau = {tau}, eps = {eps}, theta = {theta} put r at {r}")
        try:
            beta3 = (1.0 - alpha / 2.0) ** (1.0 / alpha) * big_t ** (-1.0 / alpha)
        except OverflowError:
            beta3 = math.inf
        if not 0.0 < beta3 < math.inf:
            raise ValueError(f"big_t = {big_t}, alpha = {alpha} put beta3 at {beta3}")
        cfg = cls(
            beta1=min(delta1, delta2),
            beta2=alpha / (4.0 * smoothness) if smoothness else math.inf,
            beta3=beta3,
            r=r,
            eps_hat=r / (2.0 * alpha_star),
            eps_tilde=r / (4.0 * alpha_star),
            k_max=k_max,
            alpha=alpha,
            seed=seed,
        )
        # Steps run at s > r, radius and tolerance growing in s: at s = r the dual needs a
        # finite bracket (delta^2/2 > 0) and tightest pass (lam <= r/delta + L) tolerance > 0.
        delta = cfg.radius(r)
        zeta = delta * cfg.eps_tilde
        if not (0.5 * delta * delta > 0.0 and pass_tolerance(zeta, r / delta + smoothness) > 0.0):
            inputs = dict(positive, theta=theta, alpha=alpha)
            given = ", ".join(f"{k} = {v}" for k, v in inputs.items())
            raise ValueError(f"{given} leave the dual no step at s = r = {r} (radius {delta})")
        return cfg

    def radius(self, s):
        """Step radius min(beta1, beta2 s, beta3 s^(1/alpha)) at witness-gradient
        norm s: 0 at s = 0, without forming beta2 s = inf * 0, and without the
        beta3 term where s^(1/alpha) overflows."""
        if not s:
            return 0.0
        try:
            return min(self.beta1, self.beta2 * s, self.beta3 * s ** (1.0 / self.alpha))
        except OverflowError:
            return min(self.beta1, self.beta2 * s)


_COLUMNS = ("iter", "J", "s", "delta", "zeta", "samples", "wall_ms")
_FIELDS = ("iters", "objective", "s", "delta", "zeta", "samples", "wall_ms")


def _column(typecode):
    return field(default_factory=lambda: array(typecode))


@dataclass
class FWTrace:
    """Per-iteration records of the outer loop; the seven CSV columns are
    compact arrays, 8 bytes an entry ("q" for iters and samples, else "d").

    Row i's J is the objective of the cloud entering step i, and its delta
    and zeta are the radius and tolerance that step used.  Its samples are
    the gradient rows the witness evaluated in that step (`counted_model`),
    so rows the model handed over (`atom_gradients`) are not among them.
    `final_objective` is J of the cloud the loop returns, which no row
    holds after a step (None until the loop has run).  `status` is
    "converged" or "budget-exhausted".
    """

    iters: array = _column("q")
    objective: array = _column("d")
    s: array = _column("d")
    delta: array = _column("d")
    zeta: array = _column("d")
    samples: array = _column("q")
    wall_ms: array = _column("d")
    status: str = "budget-exhausted"
    final_objective: Optional[float] = None

    def _columns(self):
        return [getattr(self, name) for name in _FIELDS]

    def append(self, i, objective, s, delta, zeta, samples, wall_ms):
        row = (i, objective, s, delta, zeta, samples, wall_ms)
        for column, value in zip(self._columns(), row):
            column.append(value)

    def __len__(self):
        return len(self.iters)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(_COLUMNS) + "\n")
            for i, j, s, d, z, m, w in zip(*self._columns()):
                fh.write(f"{i},{j:.17g},{s:.17g},{d:.17g},{z:.17g},{m},{w:.3f}\n")


def counted_model(model, counter):
    """Wrap a witness model so gradient rows the witness evaluates accumulate
    in counter["rows"]; a cloud's own atoms are evaluated once (`CloudMemo`),
    shared read-only.  The model's `atom_gradients` seed that memo, so the
    rows they hold are neither evaluated nor counted.  The wrapper is a
    `SmoothObjective` with every other field of the model."""

    def grad_many(x):
        counter["rows"] += x.shape[0]
        g = model.grad_many(x)
        if not x.flags.writeable:
            g.setflags(write=False)
        return g

    memo = CloudMemo(grad_many)
    if model.atom_gradients is not None:
        memo.seed(*model.atom_gradients)
    return SmoothObjective(**{**vars(model), "grad_many": memo})


def estimate_gradient_norm(phi, mu):
    """Witness-gradient norm s over mu, exact: the one n-row evaluation of
    the cloud that the step's dual shares through `counted_model`'s memo."""
    return mean_squared_gradient_norm(mu, phi)


def run_frank_wolfe(J, mu0, cfg, on_iterate=None):
    """Run the outer loop; returns (final cloud, trace), the trace carrying
    the final cloud's objective in `final_objective`.

    Per iteration: witness model at budget eps_hat, exact gradient norm s
    over the cloud, stop when s <= cfg.r (status "converged"), otherwise a
    trust-region step of the scheduled radius with inner tolerance
    zeta = delta * eps_tilde.  A rejected radius (`DeltaTooLarge`) is
    replaced, in the step and the trace, by the admissible bound the error
    carries; a zero bound is re-raised.

    Each step hints its dual search with a predicted root.  A step keeps
    the `root_estimate` of its certifying pass as a ratio q to lam_hat =
    s / delta; the next step's hint is (2 q(k) - q(k-1)) s / delta, the
    last two ratios extrapolated linearly (q(k) alone after one step, nan,
    which is no hint, on the first step or after a non-finite estimate),
    at the delta of the attempt, so a retry rescales it.  The estimate
    rather than the certified lam is fed back: a first pass that certifies
    returns its own point, which would stop tracking the root's drift.

    Args:
        on_iterate: optional callback invoked as on_iterate(i, cloud) after
            each recorded iteration with the post-step cloud.
    """
    mu = mu0
    trace = FWTrace()
    ratios = []  # the last two steps' root estimates over s / delta

    for i in range(1, cfg.k_max + 1):
        t0 = time.perf_counter()
        counter = {"rows": 0}
        model = counted_model(J.derivative_oracle(mu, cfg.eps_hat), counter)
        s = estimate_gradient_norm(model, mu)
        obj = J.value(mu)
        delta = cfg.radius(s)
        zeta = delta * cfg.eps_tilde
        converged = s <= cfg.r

        if not converged:
            # The next root over lam_hat = s / delta (a lone ratio held); nan is no hint.
            q = 2.0 * ratios[-1] - ratios[0] if ratios else math.nan
            try:
                sampler, rep = trust_region_step(model, mu, delta, zeta, root_hint=q * (s / delta))
            except DeltaTooLarge as exc:
                if not exc.admissible:
                    raise
                delta, zeta = exc.admissible, exc.admissible * cfg.eps_tilde
                sampler, rep = trust_region_step(model, mu, delta, zeta, root_hint=q * (s / delta))
            est = root_estimate(TrustRegionIndicator(delta), s * s, rep.lambda_star, rep.cost)
            ratio = est / (s / delta)  # nan where cbar = 0
            ratios = ratios[-1:] + [ratio] if math.isfinite(ratio) else []
            mu = sampler.target_cloud()

        wall = (time.perf_counter() - t0) * 1000.0
        trace.append(i, obj, s, delta, zeta, counter["rows"], wall)
        if on_iterate is not None:
            on_iterate(i, mu)
        if converged:
            trace.status = "converged"
            break

    trace.final_objective = J.value(mu)
    return mu, trace
