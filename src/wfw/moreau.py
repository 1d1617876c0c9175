"""Proximal machinery for the quadratic-cost inner problem.

For a semiconvex objective f and a weight lam above its semiconvexity, the
map

    prox(x) = argmin_y  f(y) + (lam/2) ||y - x||^2

is the solution of a strongly convex, smooth problem, solved here by an
accelerated gradient loop.  The dual function

    g(lam) = E_mu[ min_y f(y) + (lam/2) ||y - x||^2 ]

has derivative g'(lam) = E_mu[ (1/2) ||prox(x) - x||^2 ], the mean squared
displacement; `supergradient_hp` estimates it by averaging independent
draws, `g_value_and_grad_fullbatch` evaluates it exactly over the atoms.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import KCapExceeded, LambdaTooSmall, NonFiniteIterate

#: Cap on the sample count a single supergradient query may draw.
K_CAP = 10**6


@dataclass(frozen=True)
class SmoothObjective:
    """A pointwise objective given by its batch forms, with smoothness metadata.

    Args:
        eval_many: (n, d) array -> (n,) array of values.
        grad_many: (n, d) array -> (n, d) array of gradients; must be
            `smoothness`-Lipschitz.
        smoothness: gradient Lipschitz bound L.
        semiconvexity: minimal rho >= 0 such that f + (rho/2)||. - x0||^2
            is convex for every center x0.
        eval, grad: per-point forms x -> float and x -> (d,) array, filled
            in from the batch forms when omitted.  The library only ever
            calls the batch forms; these serve callers that probe one point.
    """

    eval_many: Callable
    grad_many: Callable
    smoothness: float
    semiconvexity: float
    eval: Optional[Callable] = None
    grad: Optional[Callable] = None

    def __post_init__(self):
        if self.semiconvexity < 0:
            raise ValueError("semiconvexity must be >= 0")
        if self.smoothness < self.semiconvexity:
            raise ValueError("smoothness bound below semiconvexity")
        eval_many, grad_many = self.eval_many, self.grad_many
        if self.eval is None:
            object.__setattr__(self, "eval", lambda x: float(eval_many(_as_row(x))[0]))
        if self.grad is None:
            object.__setattr__(self, "grad", lambda x: grad_many(_as_row(x))[0])


def _as_row(x):
    return np.asarray(x, dtype=np.float64)[None, :]


@dataclass(frozen=True)
class ProxResult:
    """One prox solve: approximate minimizer, its half squared displacement, work done."""

    y: np.ndarray
    theta: float
    iters: int
    grad_evals: int = 0


def agd_prox(f, x, lam, eps):
    """Approximately evaluate prox_{f/lam}(x) by accelerated gradient descent.

    The iteration budget is max(ceil(4*kappa*log(12*kappa*||grad f(x)||/eps)), 0)
    with kappa = sqrt((lam + L)/(lam - rho)); a strong-convexity certificate
    stops the loop earlier as soon as theta is provably within eps (and the
    iterate within sqrt(eps)/2) of the true prox.

    Args:
        f: SmoothObjective.
        x: center point, shape (d,).
        lam: prox weight, must exceed f.semiconvexity.
        eps: accuracy target for theta = (1/2)||y - x||^2.

    Returns:
        ProxResult with theta recomputed from the returned iterate.

    Raises:
        LambdaTooSmall: lam <= f.semiconvexity.
        NonFiniteIterate: the loop left the representable range.
    """
    x = np.asarray(x, dtype=np.float64)
    y, theta, iters, gevals = agd_prox_batch(f, x[None, :], lam, eps)
    return ProxResult(
        y=y[0], theta=float(theta[0]), iters=int(iters[0]), grad_evals=int(gevals[0])
    )


def agd_prox_batch(f, x, lam, eps):
    """Vectorized agd_prox over the rows of x (independent trajectories).

    Each row follows exactly the iteration `agd_prox` would run on it alone:
    rows are frozen individually once certified or once their own budget is
    spent.  The first step reuses the gradients at x, so a row that steps
    iters times evaluates 2 * iters gradients (one when it never steps).

    The loop runs on the active rows alone, in their original order; all
    of them have run the same count.  A row is written back when it leaves,
    and the working set shrinks only on steps where some row leaves, so
    each witness call sees the rows, order and shape that a masked loop
    over the full batch would pass it.  Arrays handed to the witness are
    never written to, since a witness may return its argument.

    Returns:
        (y, theta, iters, grad_evals) with shapes ((n,d), (n,), (n,), (n,)).

    Raises:
        LambdaTooSmall: lam <= f.semiconvexity.
        NonFiniteIterate: an iterate, or a gradient at one or at a center
            (step 0), left the finite range; carries lam, the step count and
            the rows still active.
    """
    if lam <= f.semiconvexity:
        raise LambdaTooSmall(
            f"lam = {lam} must exceed semiconvexity {f.semiconvexity}"
        )
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    mu_sc = lam - f.semiconvexity
    l_smooth = lam + f.smoothness
    kappa = math.sqrt(l_smooth / mu_sc)
    step = 1.0 / l_smooth
    momentum = (kappa - 1.0) / (kappa + 1.0)
    z = x.copy()  # latest gradient-step iterate per row; rows with budget 0 stay at x
    iters = np.zeros(n, dtype=np.int64)
    d_tol = 0.5 * math.sqrt(eps)

    # A diverging solve surfaces as NonFiniteIterate, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g0 = f.grad_many(x)
        gnorm0 = np.sqrt(np.sum(g0**2, axis=1))
        if not np.isfinite(gnorm0).all():
            raise NonFiniteIterate(
                f"gradient at the prox centers left the finite range at lam = {lam}",
                lam=lam,
                step=0,
                active=n,
            )

        budget = np.zeros(n, dtype=np.int64)
        pos = gnorm0 > 0
        if np.any(pos):
            raw = 4.0 * kappa * np.log(12.0 * kappa * gnorm0[pos] / eps)
            budget[pos] = np.maximum(np.ceil(raw), 0.0).astype(np.int64)

        # Working set: row indices, centers, momentum points, iterates, budgets.
        idx = np.flatnonzero(budget)
        xa = ya = za = x[idx]
        ba = budget[idx]
        k = 0
        while idx.size:
            # Before the first step, ya == xa and its gradients are g0's.
            gy = f.grad_many(ya) if k else g0[idx]
            z_new = ya - step * (gy + lam * (ya - xa))
            k += 1
            # Certificate: the prox objective a(.) = f + (lam/2)||.-x||^2 is
            # mu_sc-strongly convex, so ||z - prox(x)|| <= ||grad a(z)||/mu_sc.
            gz = f.grad_many(z_new)
            diff = z_new - xa
            resid = gz + lam * diff
            d = np.sqrt(np.sum(resid**2, axis=1)) / mu_sc
            dist = np.sqrt(np.sum(diff**2, axis=1))
            bound = d * (dist + 0.5 * d)
            # Finite only if z_new and its gradients are.
            if not np.isfinite(bound).all():
                raise NonFiniteIterate(
                    f"prox iterate left the finite range at lam = {lam}, "
                    f"step {k}, {idx.size} rows active",
                    lam=lam,
                    step=k,
                    active=int(idx.size),
                )
            certified = (bound <= 0.5 * eps) & (d <= d_tol)

            ya = z_new + momentum * (z_new - za)
            za = z_new
            done = certified | (ba <= k)
            if done.any():
                out = idx[done]
                z[out] = z_new[done]
                iters[out] = k
                keep = ~done
                idx, xa, ya, za, ba = idx[keep], xa[keep], ya[keep], za[keep], ba[keep]

    theta = 0.5 * np.sum((z - x) ** 2, axis=1)
    return z, theta, iters, np.maximum(2 * iters, 1)


def gradient_fourth_moment(f, mu):
    """Plug-in fourth moment E_mu ||grad f||^4 over the cloud's atoms;
    NonFiniteIterate if it leaves the finite range."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = f.grad_many(mu.points)
        m4 = float(np.mean(np.sum(g**2, axis=1) ** 2))
    if not math.isfinite(m4):
        raise NonFiniteIterate(f"fourth moment overflowed on {mu.n} atoms", active=mu.n)
    return m4


def hp_sample_count(f, mu, lam, eps, delta, m4=None):
    """Sample count for one high-probability supergradient query.

    Driven by the plug-in fourth moment m4 of the gradient over the cloud's
    atoms (one gradient pass when not given) and a Chebyshev bound at
    confidence delta, accuracy eps.
    """
    gap = lam - f.semiconvexity
    if m4 is None:
        m4 = gradient_fourth_moment(f, mu)
    if m4 == 0.0:
        return 1
    k = 64.0 * m4 / (gap**2 * min(gap**2, 1.0) * delta * eps**2)
    return max(int(math.ceil(k)), 1)


def supergradient_hp(f, mu, lam, eps, delta, rng, m4=None):
    """Estimate g'(lam) = E_mu[(1/2)||prox(x) - x||^2] to accuracy eps whp.

    Averages K independent prox displacements of atoms drawn i.i.d. (with
    replacement) from mu, where K comes from `hp_sample_count` (given m4,
    the `gradient_fourth_moment` of (f, mu), it skips that pass).  With
    probability >= 1 - delta the estimate lies within eps / max(lam - rho, 1)
    of the true derivative.

    The K draws are realized as one multinomial over the atoms followed by a
    single deterministic prox per atom that was hit, reduced in atom-index
    order — identical to a sequential loop with the same counts, and safe to
    fan out.

    Raises:
        LambdaTooSmall; KCapExceeded (reports the required K).
    """
    if lam <= f.semiconvexity:
        raise LambdaTooSmall(
            f"lam = {lam} must exceed semiconvexity {f.semiconvexity}"
        )
    k = hp_sample_count(f, mu, lam, eps, delta, m4=m4)
    if k > K_CAP:
        raise KCapExceeded(
            f"supergradient query needs K = {k} samples (cap {K_CAP})",
            required=k,
            cap=K_CAP,
        )
    counts = rng.multinomial(k, np.full(mu.n, 1.0 / mu.n))
    eps_inner = eps / (2.0 * max(lam - f.semiconvexity, 1.0))
    hit = np.nonzero(counts)[0]
    _, theta, _, _ = agd_prox_batch(f, mu.points[hit], lam, eps_inner)
    return float(np.dot(counts[hit].astype(np.float64), theta) / k)


def g_value_and_grad_fullbatch(f, mu, lam, eps):
    """Deterministic g(lam) and g'(lam) over all atoms of mu.

    One prox solve per atom at accuracy eps; returns
    (mean f(y) + lam*theta, mean theta).
    """
    y, theta, _, _ = agd_prox_batch(f, mu.points, lam, eps)
    fvals = f.eval_many(y)
    return float(np.mean(fvals + lam * theta)), float(np.mean(theta))
