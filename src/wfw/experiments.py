"""Desk-scale experiment runners: deconvolution, MMD flows, chart emission.

Every runner is driven by an `ExperimentConfig`, seeds all randomness from
the config, and writes CSV traces whose bytes depend only on the config
(wall-clock columns excepted, where present).
"""

import csv
import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .cloud import ParticleCloud, save_csv
from .errors import MissingColumn
from .frank_wolfe import FWConfig, run_frank_wolfe
from .functionals import EntropicDeconv, MMDSquared, RandomFeatureKernel
from .svg import line_chart

_EXPERIMENTS = ("deconv", "mmd-flow")

# The types an `ExperimentConfig` field of each annotation admits.
_ADMITS = {int: int, float: (int, float), str: str}


@dataclass(frozen=True)
class ExperimentConfig:
    """Bag of experiment knobs; seeds are mandatory."""

    experiment: str
    seed: int = None
    dim: int = 2
    particles: int = 50
    sigma2: float = 0.25
    eps: float = 1e-3
    k_max: int = 20
    delta_cap: float = 0.5
    features: int = 64
    feature_scale: float = 0.4
    shift: float = 2.0
    baseline_step: float = None
    sinkhorn_tol: float = 1e-9
    snap_every: int = 0
    out: str = "trace.csv"
    baseline_out: str = "baseline.csv"
    snapshot_prefix: str = "cloud"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            # an int is a float here, but a bool (an int to Python) is neither
            if isinstance(value, bool) or not isinstance(value, _ADMITS[f.type]):
                raise ValueError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.seed is None:
            raise ValueError("a seed is mandatory; wall-clock seeding is not allowed")
        if self.particles < 1 or self.dim < 1:
            raise ValueError("particles and dim must be positive")
        if self.features < 1:
            raise ValueError(f"features must be positive, got {self.features}")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must lie in (0, inf), got {self.sigma2}")
        for name in ("feature_scale", "shift"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        step = self.baseline_step
        if step is not None and not 0 < step < math.inf:
            raise ValueError(f"baseline_step must lie in (0, inf), got {step}")

    @classmethod
    def from_mapping(cls, mapping):
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)


def make_mixture_observations(n, sigma2, rng, dim=2, modes=4, radius=1.2, mode_std=0.1):
    """Draw latent points from a circular Gaussian mixture, then add noise.

    Modes sit equally spaced on a radius-`radius` circle in the first two
    coordinates.  Returns (observations, latents) as arrays of shape (n, dim).
    """
    angles = 2.0 * math.pi * np.arange(modes) / modes
    centers = np.zeros((modes, dim))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, min(1, dim - 1)] = radius * np.sin(angles)
    which = rng.integers(0, modes, size=n)
    latent = centers[which] + mode_std * rng.standard_normal((n, dim))
    obs = latent + math.sqrt(sigma2) * rng.standard_normal((n, dim))
    return obs, latent


def _write_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("grad_evals,J,val\n")
        for grad_evals, objective, val in rows:
            fh.write(f"{grad_evals},{objective:.17g},{val:.17g}\n")


def _unit_schedule(cfg, smoothness):
    """Outer-loop constants with unit domination and Holder constants (alpha 1)."""
    return FWConfig.from_schedule(
        tau=1.0,
        theta=1.0,
        big_t=1.0,
        alpha=1.0,
        delta1=cfg.delta_cap,
        delta2=cfg.delta_cap,
        smoothness=smoothness,
        eps=cfg.eps,
        k_max=cfg.k_max,
        seed=cfg.seed,
    )


def run_deconv(cfg):
    """Deconvolve a noisy mixture sample; returns (cloud, trace, functional).

    The iterate starts at the observations themselves.  Writes the outer-loop
    trace to cfg.out and, when cfg.snap_every > 0, cloud snapshots to
    `{snapshot_prefix}_iterNNNN.csv`.
    """
    rng = np.random.default_rng(cfg.seed)
    obs, _ = make_mixture_observations(cfg.particles, cfg.sigma2, rng, dim=cfg.dim)
    data = ParticleCloud(obs)
    J = EntropicDeconv(cfg.sigma2, data, tol=cfg.sinkhorn_tol)
    smoothness = J.derivative_oracle(data, 1.0).smoothness
    fw_cfg = _unit_schedule(cfg, smoothness)

    def snapshot(i, cloud):
        if cfg.snap_every > 0 and i % cfg.snap_every == 0:
            save_csv(cloud, f"{cfg.snapshot_prefix}_iter{i:04d}.csv")

    mu, trace = run_frank_wolfe(J, data, fw_cfg, on_iterate=snapshot)
    trace.to_csv(cfg.out)
    return mu, trace, J


def mmd_gradient_flow(J, mu, step, grad_budget, val_fn):
    """Explicit-Euler particle descent on the witness gradient.

    Moves every atom of mu by -step * witness gradient each iteration until
    the cumulative gradient-evaluation count reaches grad_budget.  Returns
    the rows (grad_evals, objective, val_fn(cloud)), one per step.
    """
    rows = []
    grad_evals = 0
    while grad_evals < grad_budget:
        model = J.derivative_oracle(mu, 1e-9)
        g = model.grad_many(mu.points)
        grad_evals += mu.n
        mu = ParticleCloud(mu.points - step * g)
        rows.append((grad_evals, J.value(mu), val_fn(mu)))
    return rows


def run_mmd_flow(cfg):
    """Student-teacher matching under a random-feature kernel.

    Teacher atoms are standard-normal draws; the student starts from an
    offset normal cloud of equal size.  The outer loop and the explicit-Euler
    baseline are both traced by cumulative gradient evaluations, with a
    validation column measured against a held-out teacher batch.  Writes
    cfg.out (outer loop) and cfg.baseline_out (baseline); returns a dict of
    both row lists, the trace, the clouds and the two functionals (teachers
    as their `target`s).
    """
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.particles, cfg.dim
    with np.errstate(over="ignore"):  # an overflowing table is refused below
        table = cfg.feature_scale * rng.standard_normal((cfg.features, d))
    # The schedule and the Euler step take the global bound on every
    # witness's curvature; each step's own bound is at most this one, so
    # a radius of s / (4 L) stays within the step's admissible s / (2 L_k).
    try:  # features and dim are >= 1, so the kernel refuses only its bound
        kernel = RandomFeatureKernel(table)
        smoothness = 4.0 * kernel.grad_lipschitz
    except ValueError:
        smoothness = math.inf
    if not math.isfinite(smoothness):
        raise ValueError(
            f"feature_scale = {cfg.feature_scale} overflows the squared row norms"
            " of the feature table"
        )

    J = MMDSquared(kernel, ParticleCloud(rng.standard_normal((n, d))))  # the teacher
    J_val = MMDSquared(kernel, ParticleCloud(rng.standard_normal((n, d))))  # held out
    # The uniform offset puts the student a W2 distance of about cfg.shift
    # from the teacher, which the outer loop then has to transport back.
    student0 = ParticleCloud(rng.standard_normal((n, d)) + cfg.shift / math.sqrt(d))
    fw_cfg = _unit_schedule(cfg, smoothness)
    step = cfg.baseline_step
    if step is None:
        if smoothness == 0:
            raise ValueError(
                "the kernel's smoothness is 0: give the Euler baseline a --baseline-step"
            )
        step = 0.05 / smoothness

    fw_rows = []

    def record(i, cloud):
        fw_rows.append((J.value(cloud), J_val.value(cloud)))

    mu, trace = run_frank_wolfe(J, student0, fw_cfg, on_iterate=record)
    cumulative = np.cumsum(trace.samples)
    fw_rows = [(int(c), *row) for c, row in zip(cumulative, fw_rows)]
    _write_rows(cfg.out, fw_rows)

    budget = int(cumulative[-1]) if len(cumulative) else n * cfg.k_max
    base_rows = mmd_gradient_flow(J, student0, step, budget, J_val.value)
    _write_rows(cfg.baseline_out, base_rows)

    return {
        "fw_rows": fw_rows,
        "baseline_rows": base_rows,
        "fw_cloud": mu,
        "trace": trace,
        "student0": student0,
        "objective": J,
        "validation": J_val,
    }


def read_trace(path):
    """Read a trace CSV into {column: list of floats}."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MissingColumn("trace file has no header")
        cols = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in reader.fieldnames:
                cols[name].append(float(row[name]))
    return cols


def emit_plot(trace_paths, out_path, x_column, y_column, log_y=False, title=""):
    """Render one curve per trace CSV into a deterministic SVG file.

    Raises MissingColumn when a trace lacks the requested columns.  Legend
    labels are the trace file basenames, in input order.
    """
    series = []
    for path in trace_paths:
        cols = read_trace(path)
        for name in (x_column, y_column):
            if name not in cols:
                raise MissingColumn(f"{path} has no column {name!r}")
        label = os.path.splitext(os.path.basename(path))[0]
        series.append((label, cols[x_column], cols[y_column]))
    chart = line_chart(
        series, title=title, xlabel=x_column, ylabel=y_column, log_y=log_y
    )
    with open(out_path, "w") as fh:
        fh.write(chart)
    return out_path
