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

from .cloud import gradient_sqnorms, row_sqnorm
from .errors import KCapExceeded, LambdaTooSmall, NonFiniteIterate, ProxNotCertified

#: Cap on the sample count a single supergradient query may draw.
K_CAP = 10**6

#: Cap on a prox row's step budget.  The budget grows like sqrt((lam + c) /
#: (lam - rho)), so a lam just above rho asks for more steps than can run
#: (1e16 at lam = 1e-28 on a softplus).  The test suite peaks at 3,326 (about
#: 3,030 but for a row built to spend that), the benchmark workloads at 101.
BUDGET_CAP = 10**6


@dataclass(frozen=True)
class SmoothObjective:
    """A pointwise objective given by its batch forms, with smoothness metadata.

    The two curvature bounds are one-sided: -rho I <= grad^2 f <= c I,
    rho the semiconvexity and c the semiconcavity, and L bounds both
    sides.  The prox solve needs only rho and c; the outer schedule and
    the dual interval take L.

    Args:
        eval_many: (n, d) array -> (n,) array of values.
        grad_many: (n, d) array -> (n, d) array of gradients; must be
            `smoothness`-Lipschitz.
        smoothness: gradient Lipschitz bound L.
        semiconvexity: minimal rho >= 0 such that f + (rho/2)||. - x0||^2
            is convex for every center x0.
        semiconcavity: c in [-rho, L] such that f - (c/2)||. - x0||^2 is
            concave for every center x0; L when omitted.
        eval, grad: per-point forms x -> float and x -> (d,) array, filled
            in from the batch forms when omitted.  The library only ever
            calls the batch forms; these serve callers that probe one point.
        atom_gradients: optional (points, gradients), a read-only array of
            points and grad_many's rows there, already computed by whoever
            built the model (as `EntropicDeconv` does from its transport
            coupling at the cloud's atoms).  They are data, not a wrapped
            call: a wrapper that memoizes per cloud (`counted_model`) may
            start from them instead of evaluating those rows.
    """

    eval_many: Callable
    grad_many: Callable
    smoothness: float
    semiconvexity: float
    semiconcavity: Optional[float] = None
    eval: Optional[Callable] = None
    grad: Optional[Callable] = None
    atom_gradients: Optional[tuple] = None

    def __post_init__(self):
        if not self.semiconvexity >= 0:
            raise ValueError(f"semiconvexity must be >= 0, got {self.semiconvexity}")
        if not self.smoothness >= self.semiconvexity:
            raise ValueError(f"smoothness bound {self.smoothness} below semiconvexity")
        if self.semiconcavity is None:
            object.__setattr__(self, "semiconcavity", self.smoothness)
        elif not -self.semiconvexity <= self.semiconcavity <= self.smoothness:
            raise ValueError(
                f"semiconcavity must lie in [-semiconvexity, smoothness] = "
                f"[{-self.semiconvexity}, {self.smoothness}], got {self.semiconcavity}"
            )
        eval_many, grad_many = self.eval_many, self.grad_many
        if self.eval is None:
            object.__setattr__(self, "eval", lambda x: float(eval_many(_as_row(x))[0]))
        if self.grad is None:
            object.__setattr__(self, "grad", lambda x: grad_many(_as_row(x))[0])


def _as_row(x):
    return np.asarray(x, dtype=np.float64)[None, :]


def agd_prox_batch(f, x, lam, eps):
    """Approximately evaluate prox_{f/lam} at each row of x (one
    independent trajectory per row; pass x[None, :] for one point).

    The prox objective a(.) = f + (lam/2)||. - x||^2 is (lam - rho)-strongly
    convex, so ||y - prox(x)|| <= ||grad a(y)||/(lam - rho) certifies a
    point y: a row is returned at the first point where theta = (1/2)||y -
    x||^2 is provably within eps (and y within sqrt(eps)/2) of the true
    prox.  Its Hessian lies in [lam - rho, lam + c] (c the semiconcavity),
    so a is (lam + c)-smooth: only the upper side of f's curvature sizes
    the step, the momentum and the budget.  Step 1 is a plain gradient
    step from the center, which finishes a quadratic in one step.  Later
    steps run constant-momentum AGD from there and evaluate one gradient
    each, at the momentum point y: it serves both the certificate at y and
    the step y - grad a(y)/(lam + c).  Where grad a(y) points along the
    step just taken, the row's momentum is zeroed for the next step
    (gradient restart).  With the gradient at x, a row that steps iters
    times evaluates iters + 1 gradients (one when it never steps).

    Row i's budget is max(ceil(4 kappa (log(12 kappa) + log ||grad f(x_i)||
    - log min(lam - rho, 1) - log eps)), 0) steps, kappa = sqrt((lam + c)/(lam
    - rho)), the square root of a's condition number; ||grad f(x_i)|| /
    min(lam - rho, 1) bounds the row's distance to its prox.  A row with
    budget 0 (as where grad f(x_i) = 0) is returned at its center, which
    must itself certify.  No row may be given more than `BUDGET_CAP` steps.

    The loop runs on the active rows alone, in their original order; all
    of them have run the same count.  The working set shrinks only on
    steps where some row leaves, so each witness call sees the rows, order
    and shape that a masked loop over the full batch would pass it.  Its
    index set, `iters`, `theta` and the output buffer are built once rows
    leave at different steps: at step 0 where some row has budget 0, else
    at the first step some rows leave and others stay.  Rows that all
    leave at one step (a quadratic's, at step 1) return as the working
    set.  Arrays handed to the witness are never written to, since a
    witness may return its argument.  theta is the certificate's (1/2)||y
    - x||^2 as a row leaves (0 if it never steps); budgets read ||grad
    f(x_i)||^2 from `gradient_sqnorms`, whose mean, where finite, spares
    the check that each row is.

    Returns:
        (y, theta, iters, grad_evals) with shapes ((n,d), (n,), (n,), (n,)).

    Raises:
        LambdaTooSmall: lam <= f.semiconvexity.
        ValueError: eps is not positive.
        NonFiniteIterate: an iterate, or a gradient at one or at a center
            (step 0), left the finite range; carries lam, the step count and
            the rows still active.
        ProxNotCertified: a row spent its budget without certifying (f's
            curvature leaves [-rho, c] where the row went, or rounding
            hides the prox), or, at step 0, a row's budget exceeds
            `BUDGET_CAP`; carries lam, the step count and the rows still
            active.
    """
    if lam <= f.semiconvexity:
        raise LambdaTooSmall(
            f"lam = {lam} must exceed semiconvexity {f.semiconvexity}"
        )
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    mu_sc = lam - f.semiconvexity
    l_smooth = lam + f.semiconcavity
    kappa = math.sqrt(l_smooth / mu_sc)
    step = 1.0 / l_smooth
    momentum = (kappa - 1.0) / (kappa + 1.0)
    d_tol = 0.5 * math.sqrt(eps)

    # A diverging solve surfaces as NonFiniteIterate, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g0 = f.grad_many(x)
        sq0, m2 = gradient_sqnorms(g0)
        gnorm0 = np.sqrt(sq0)
        # Every row is finite where their mean is; else the row max (it keeps a NaN) decides.
        if not math.isfinite(m2) and n and not math.isfinite(np.maximum.reduce(gnorm0)):
            _fail(lam, 0, n, NonFiniteIterate, "prox center gradient left the finite range")

        # A sum of finite logs (log 0 = -inf gives budget 0), so no overflow.
        log_c = math.log(12.0 * kappa) - math.log(min(mu_sc, 1.0)) - math.log(eps)
        ba = np.log(gnorm0)  # becomes ceil(4 kappa (log ||g0|| + log_c)), in place
        np.ceil(np.multiply(np.add(ba, log_c, out=ba), 4.0 * kappa, out=ba), out=ba)
        xa, active, idx = x, n, None  # idx: built once rows leave at different steps
        b_min = np.minimum.reduce(ba, initial=np.inf)  # changes only when rows leave
        if not (n and b_min > 0):  # rows with budget 0 leave at step 0, at their centers
            stepping = ba > 0
            idx = stepping.nonzero()[0]  # np.flatnonzero adds a Python call per pass
            active = idx.size
            # A center certifies iff d = ||g0|| / (lam - rho) <= d_tol; budget 0
            # gives d <= eps / 12, within d_tol unless eps > 36.
            missed = np.count_nonzero(gnorm0[~stepping] / mu_sc > d_tol)
            if missed:
                _fail(lam, 0, active + missed)
            y, theta, iters = x.copy(), np.zeros(n), np.zeros(n, dtype=np.int64)
            xa, ba, g0 = x[idx], ba[idx], g0[idx]
            b_min = np.minimum.reduce(ba, initial=np.inf)
        if np.maximum.reduce(ba, initial=0.0) > BUDGET_CAP:
            _fail(lam, 0, active, what=f"a prox row's budget exceeds {BUDGET_CAP} steps")

        # Working set: centers, momentum points, iterates, budgets (and idx).
        ya = za = xa - step * g0
        k = 0
        while active:
            k += 1
            diff = ya - xa
            resid = f.grad_many(ya) + lam * diff
            d = np.sqrt(row_sqnorm(resid)) / mu_sc
            sq = row_sqnorm(diff)
            bound = d * (np.sqrt(sq) + 0.5 * d)
            # Finite only if ya and its gradients are.
            if not math.isfinite(np.maximum.reduce(bound)):
                _fail(lam, k, active, NonFiniteIterate, "prox iterate left the finite range")
            certified = (bound <= 0.5 * eps) & (d <= d_tol)
            done = np.count_nonzero(certified)
            if done and idx is None:
                if done == n:  # all n rows leave at once: the working set is the result
                    iters = np.full(n, k, dtype=np.int64)
                    return ya, 0.5 * sq, iters, iters + 1
                idx, y, theta = np.arange(n), np.empty_like(x), np.empty(n)
                iters = np.empty(n, dtype=np.int64)
            if done == active:
                y[idx], theta[idx], iters[idx] = ya, 0.5 * sq, k
                break
            if done:
                out = idx[certified]
                y[out], theta[out], iters[out] = ya[certified], 0.5 * sq[certified], k
                keep = ~certified
                idx, xa, ya, za, ba = idx[keep], xa[keep], ya[keep], za[keep], ba[keep]
                resid, b_min, active = resid[keep], np.minimum.reduce(ba), active - done
            if b_min <= k:
                _fail(lam, k, active)

            z_new = ya - step * resid
            dz = z_new - za
            # Restart where grad a(y) has a positive component along the step.
            dot = np.add.reduce(resid * dz, axis=1, keepdims=True)
            ya = z_new + np.where(dot > 0, 0.0, momentum) * dz
            za = z_new

    return y, theta, iters, iters + 1


def _fail(lam, step, active, error=ProxNotCertified, what="a prox row spent its budget"):
    raise error(
        f"{what} at lam = {lam}, step {step}, {active} rows active",
        lam=lam,
        step=step,
        active=int(active),
    )


def gradient_fourth_moment(f, mu):
    """Plug-in fourth moment E_mu ||grad f||^4 over the cloud's atoms;
    NonFiniteIterate if it leaves the finite range."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = f.grad_many(mu.points)
        m4 = float(np.mean(gradient_sqnorms(g)[0] ** 2))
    if not math.isfinite(m4):
        raise NonFiniteIterate(f"fourth moment overflowed on {mu.n} atoms", active=mu.n)
    return m4


def hp_sample_count(f, mu, lam, eps, delta, m4=None):
    """Sample count for one high-probability supergradient query.

    Driven by the plug-in fourth moment m4 of the gradient over the cloud's
    atoms (one gradient pass when not given) and a Chebyshev bound at
    confidence delta, accuracy eps; inf where it is past the float range.
    """
    gap = lam - f.semiconvexity
    if m4 is None:
        m4 = gradient_fourth_moment(f, mu)
    if m4 == 0.0:
        return 1
    den = gap**2 * min(gap**2, 1.0) * delta * eps**2  # may underflow to 0
    k = 64.0 * m4 / den if den else math.inf
    return max(math.ceil(k), 1) if k < math.inf else k


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
    return float(np.mean(f.eval_many(y) + lam * theta)), float(np.mean(theta))
