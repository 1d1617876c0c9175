"""The four benchmark workloads: inputs, one solve through the public entry point, output checks.

Each workload pins the configuration of an acceptance gate (or of a CLI
invocation) and its seed, so its counts are reproducible run after run:

- ``deconv``:   ``run_deconv`` at the gate-10 defaults (n=50, d=2,
  sigma2=0.25, eps=1e-3, k_max=20), seed 0.
- ``mmd-flow``: ``run_mmd_flow`` at the gate-9 config (seed 11, n=100,
  d=4, eps=0.05, k_max=200, random-feature kernel).
- ``fw-rate``:  ``run_frank_wolfe`` on ``PotentialInteraction(quadratic())``
  at the gate-8 config (seed 42, n=50, delta cap 0.0055, k_max=110).
- ``fw-pair``:  ``run_frank_wolfe`` on the double-well potential with the
  double-well pair term, as ``wfw fw --seed 0 --objective double-well
  --pair double-well --particles 50 --k-max 5``.

BENCHMARK.json lists the first three.  fw-pair runs by hand (``--workload
fw-pair``, and in ``--workload all``) but is not benchmarked: its one call
per run (25-48 s) was not steady on a shared 2-vCPU host (ten-run spread
0.247 for solve_s and 0.280 for step_ms.p50, rescaled by a median of
pure-Python-loop kernel times; not re-measured with the rescaling of
`hostspeed` now), and it would take a fourth of the benchmark's time.

The instance seed replaces the pinned seed (``--instance-seed`` on the
command line) so a claim can be re-checked on a held-out instance.  The
benchmark seed reorders the atoms of the initial cloud where the benchmark
builds that cloud itself (fw-rate, fw-pair): the same measure, different
input bytes.  Seed 0 keeps the pinned order.  The experiment runners build
their inputs from the instance seed alone, so for deconv and mmd-flow the
benchmark seed changes nothing.  Other instance seeds change the work by up
to 2x (deconv seeds 0-9 take 5.4-12.6 s), too much for a steady benchmark.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from wfw import experiments, frank_wolfe
from wfw.cloud import ParticleCloud
from wfw.frank_wolfe import FWConfig
from wfw.functionals import PotentialInteraction
from wfw.registry import make_objective, make_pair, quadratic

NAMES = ("deconv", "mmd-flow", "fw-rate", "fw-pair")

PINNED_SEEDS = {"deconv": 0, "mmd-flow": 11, "fw-rate": 42, "fw-pair": 0}

# The `hostspeed` kernel whose cost is like the workload's: mmd-flow spends
# its time in vectorised tanh features, the others in Python-level code over
# small arrays (scipy's logsumexp wrapper in Sinkhorn and the witness, prox
# rows, per-pair witness calls), which the logsumexp kernel tracks.
KERNEL = {
    "deconv": "logsumexp",
    "mmd-flow": "vector",
    "fw-rate": "logsumexp",
    "fw-pair": "logsumexp",
}

# Sizes for the harness smoke test; every other knob keeps its full value.
TINY = {
    "deconv": {"particles": 12, "k_max": 4},
    "mmd-flow": {"particles": 20, "dim": 2, "features": 16},
    "fw-rate": {"particles": 10},
    "fw-pair": {"particles": 8},
}

MARGINAL_TOL = 1e-6
VAL_RATIO_MAX = 0.1
RATE_WINDOW = (10, 100)
RATE_SLOPE = (-1.4, -0.6)


@dataclass
class Inputs:
    """Everything one solve needs, built before the timed call."""

    name: str
    out_dir: str
    cfg: object
    J: object = None
    mu0: object = None


@dataclass
class Outcome:
    """One solve: the returned trace and clouds plus what the checks read."""

    trace: object
    final_J: float
    val_ratio: float
    fingerprint: bytes
    failures: list = field(default_factory=list)
    sinkhorn_solves: int = 0
    sinkhorn_err_max: float = 0.0
    baseline_steps: int = 0


def _permuted(points, seed):
    if seed == 0:
        return points
    return points[np.random.default_rng(seed).permutation(points.shape[0])]


def build(name, instance_seed, seed, out_dir, tiny=False):
    """Build the inputs of workload `name`; nothing here is timed as a solve."""
    sizes = TINY[name] if tiny else {}
    os.makedirs(out_dir, exist_ok=True)
    if name == "deconv":
        cfg = experiments.ExperimentConfig(
            experiment="deconv",
            seed=instance_seed,
            out=os.path.join(out_dir, "deconv.csv"),
            **sizes,
        )
        return Inputs(name, out_dir, cfg)
    if name == "mmd-flow":
        cfg = experiments.ExperimentConfig(
            experiment="mmd-flow",
            seed=instance_seed,
            particles=sizes.get("particles", 100),
            dim=sizes.get("dim", 4),
            features=sizes.get("features", 64),
            eps=0.05,
            k_max=200,
            out=os.path.join(out_dir, "mmd-fw.csv"),
            baseline_out=os.path.join(out_dir, "mmd-baseline.csv"),
        )
        return Inputs(name, out_dir, cfg)

    n = sizes.get("particles", 50)
    rng = np.random.default_rng(instance_seed)
    mu0 = ParticleCloud(_permuted(rng.uniform(-1.0, 1.0, size=(n, 2)), seed))
    if name == "fw-rate":
        J = PotentialInteraction(quadratic())
        cfg = FWConfig.from_schedule(
            tau=math.sqrt(6.0),
            theta=1.0,
            big_t=0.5,
            alpha=1.0,
            delta1=0.0055,
            delta2=0.0055,
            smoothness=1.0,
            eps=2.0 * 0.01 / math.sqrt(6.0),
            k_max=110,
            seed=instance_seed,
        )
    elif name == "fw-pair":
        J = PotentialInteraction(make_objective("double-well"), make_pair("double-well"))
        cfg = FWConfig.from_schedule(
            tau=1.0,
            theta=1.0,
            big_t=1.0,
            alpha=1.0,
            delta1=0.5,
            delta2=0.5,
            smoothness=J.derivative_oracle(mu0, 1.0).smoothness,
            eps=1e-2,
            k_max=5,
            seed=instance_seed,
        )
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return Inputs(name, out_dir, cfg, J, mu0)


def call_entry_point(inputs):
    """The timed call: the workload's public entry point, nothing else."""
    if inputs.name == "deconv":
        return experiments.run_deconv(inputs.cfg)
    if inputs.name == "mmd-flow":
        return experiments.run_mmd_flow(inputs.cfg)
    return frank_wolfe.run_frank_wolfe(inputs.J, inputs.mu0, inputs.cfg)


def _trace_bytes(trace, path):
    """The trace CSV without its wall-clock column, the one field that never replays."""
    trace.to_csv(path)
    with open(path) as fh:
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in fh).encode()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def evaluate(inputs, result):
    """Recompute the reported values from the returned objects and run the output checks."""
    trace_path = os.path.join(inputs.out_dir, f"{inputs.name}-trace.csv")
    if inputs.name == "deconv":
        mu, trace, J = result
        solves = len(J.marginal_error_log)
        err_max = max(J.marginal_error_log)
        final_J = J.value(mu)
        out = Outcome(
            trace=trace,
            final_J=final_J,
            val_ratio=final_J / J.value(J.data),
            fingerprint=_trace_bytes(trace, trace_path),
            sinkhorn_solves=solves,
            sinkhorn_err_max=err_max,
        )
        if len(trace) != inputs.cfg.k_max:
            out.failures.append(f"{len(trace)} outer steps, expected {inputs.cfg.k_max}")
        if not err_max <= MARGINAL_TOL:
            out.failures.append(f"Sinkhorn marginal error {err_max} above {MARGINAL_TOL}")
        return out

    if inputs.name == "mmd-flow":
        trace = result["trace"]
        val0 = result["validation"].value(result["student0"])
        vals = [row[2] for row in result["fw_rows"]]
        out = Outcome(
            trace=trace,
            final_J=result["objective"].value(result["fw_cloud"]),
            val_ratio=vals[-1] / val0,
            fingerprint=_trace_bytes(trace, trace_path)
            + _read_bytes(inputs.cfg.out)
            + _read_bytes(inputs.cfg.baseline_out),
            baseline_steps=len(result["baseline_rows"]),
        )
        slack = 1e-12 * (1.0 + val0)
        if not all(b - a <= slack for a, b in zip(vals, vals[1:])):
            out.failures.append("validation column increases")
        if not out.val_ratio < VAL_RATIO_MAX:
            out.failures.append(f"val_ratio {out.val_ratio} not below {VAL_RATIO_MAX}")
        return out

    mu, trace = result
    J0 = inputs.J.value(inputs.mu0)
    final_J = inputs.J.value(mu)
    out = Outcome(
        trace=trace,
        final_J=final_J,
        val_ratio=final_J / J0,
        fingerprint=_trace_bytes(trace, trace_path),
    )
    if inputs.name == "fw-rate":
        obj = trace.objective
        if not all(b <= a + z for a, b, z in zip(obj, obj[1:], trace.zeta)):
            out.failures.append("objective rises by more than zeta")
        lo, hi = RATE_WINDOW
        window = [k for k, i in enumerate(trace.iters) if lo <= i <= hi]
        if len(window) < 2:
            out.failures.append(f"fewer than 2 iterations in {RATE_WINDOW}")
        else:
            slope = np.polyfit(
                np.log(np.array(trace.iters)[window]),
                np.log(np.array(obj)[window]),
                1,
            )[0]
            if not RATE_SLOPE[0] <= slope <= RATE_SLOPE[1]:
                out.failures.append(f"log-log slope {slope:.3f} outside {RATE_SLOPE}")
    elif not final_J <= J0:
        out.failures.append(f"final J {final_J} above initial {J0}")
    return out
