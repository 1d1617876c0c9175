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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cloud import CloudMemo, ParticleCloud, mean_squared_gradient_norm
from .dual_solvers import trust_region_step
from .errors import DeltaTooLarge


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
        gradient-scaled cap off: beta2 = inf.
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
        r = 0.5 * tau * eps**theta
        return cls(
            beta1=min(delta1, delta2),
            beta2=alpha / (4.0 * smoothness) if smoothness else math.inf,
            beta3=(1.0 - alpha / 2.0) ** (1.0 / alpha) * big_t ** (-1.0 / alpha),
            r=r,
            eps_hat=r / (2.0 * alpha_star),
            eps_tilde=r / (4.0 * alpha_star),
            k_max=k_max,
            alpha=alpha,
            seed=seed,
        )


_COLUMNS = ("iter", "J", "s", "delta", "zeta", "samples", "wall_ms")
_FIELDS = ("iters", "objective", "s", "delta", "zeta", "samples", "wall_ms")


def _column(typecode):
    return field(default_factory=lambda: array(typecode))


@dataclass
class FWTrace:
    """Per-iteration records of the outer loop; the seven CSV columns are
    compact arrays, 8 bytes an entry ("q" for iters and samples, else "d").

    Row i's J is the objective of the cloud entering step i, and its delta
    and zeta are the radius and tolerance that step used; `final_objective`
    is J of the cloud the loop returns, which no row holds after a step
    (None until the loop has run).  `status` is "converged" or
    "budget-exhausted".
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
    """Wrap a witness model so gradient-row evaluations accumulate in counter["rows"];
    a cloud's own atoms are evaluated once (`CloudMemo`), shared read-only."""

    def grad_many(x):
        counter["rows"] += x.shape[0]
        g = model.grad_many(x)
        if not x.flags.writeable:
            g.setflags(write=False)
        return g

    return replace(model, grad_many=CloudMemo(grad_many))


def estimate_gradient_norm(phi, mu):
    """Witness-gradient norm s over mu, exact: the one n-row evaluation of
    the cloud that the step's dual shares through `counted_model`'s memo."""
    return mean_squared_gradient_norm(mu, phi)


def run_frank_wolfe(J, mu0, cfg, chained=False, on_iterate=None):
    """Run the outer loop; returns (final cloud, trace), the trace carrying
    the final cloud's objective in `final_objective`.

    Per iteration: witness model at budget eps_hat, exact gradient norm s
    over the cloud, stop when s <= cfg.r (status "converged"), otherwise a
    trust-region step of the scheduled radius with inner tolerance
    zeta = delta * eps_tilde.  A rejected radius (`DeltaTooLarge`) is
    replaced, in the step and the trace, by the admissible bound the error
    carries; a zero bound is re-raised.

    Args:
        chained: resample the iterate through its prox lineage instead of
            keeping the one-image-per-atom materialization; the only use
            of the run's rng, seeded with cfg.seed.
        on_iterate: optional callback invoked as on_iterate(i, cloud) after
            each recorded iteration with the post-step cloud.
    """
    mu = mu0
    rng = np.random.default_rng(cfg.seed)
    trace = FWTrace()

    for i in range(1, cfg.k_max + 1):
        t0 = time.perf_counter()
        counter = {"rows": 0}
        model = counted_model(J.derivative_oracle(mu, cfg.eps_hat), counter)
        s = estimate_gradient_norm(model, mu)
        obj = J.value(mu)
        # s = 0 gives delta = 0 without forming beta2 * s = inf * 0.
        delta = (
            min(cfg.beta1, cfg.beta2 * s, cfg.beta3 * s ** (1.0 / cfg.alpha)) if s else 0.0
        )
        zeta = delta * cfg.eps_tilde
        converged = s <= cfg.r

        if not converged:
            try:
                sampler, _ = trust_region_step(model, mu, delta, zeta, None, None)
            except DeltaTooLarge as exc:
                if not exc.admissible:
                    raise
                delta, zeta = exc.admissible, exc.admissible * cfg.eps_tilde
                sampler, _ = trust_region_step(model, mu, delta, zeta, None, None)
            if chained:
                idx = rng.integers(0, sampler.images.shape[0], size=mu0.n)
                mu = ParticleCloud(sampler.images[idx])
            else:
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
