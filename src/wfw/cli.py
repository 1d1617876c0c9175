"""Command-line front end: ``wfw <subcommand> [flags]``.

Exit codes: 0 on convergence/completion, 2 when the optimizer exhausts its
iteration budget before reaching its stopping threshold, 1 on any error.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .cloud import ParticleCloud, load_csv, mean_squared_gradient_norm, save_csv
from .dual_solvers import trust_region_step
from .errors import WfwError
from .experiments import ExperimentConfig, emit_plot, run_deconv, run_mmd_flow
from .frank_wolfe import FWConfig, run_frank_wolfe
from .functionals import PotentialInteraction
from .registry import make_objective, make_pair

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

def _require_file(path):
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")


def _experiment_config(args, experiment):
    mapping = {}
    if args.config is not None:
        _require_file(args.config)
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        mapping.update(loaded)
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = value
    mapping["experiment"] = experiment
    return ExperimentConfig.from_mapping(mapping)


def _add_config_flags(p, sigma2=False, kernelish=False):
    p.add_argument("--config", help="JSON file of config keys; flags override it")
    p.add_argument("--seed", type=int, help="RNG seed (mandatory, here or in config)")
    p.add_argument("--dim", type=int, help="ambient dimension")
    p.add_argument("--particles", type=int, help="atoms per cloud")
    p.add_argument("--eps", type=float, help="target accuracy for the schedule")
    p.add_argument("--k-max", dest="k_max", type=int, help="outer iteration cap")
    p.add_argument(
        "--delta-cap", dest="delta_cap", type=float, help="locality cap on step radius"
    )
    p.add_argument("--out", help="trace CSV path")
    if sigma2:
        p.add_argument("--sigma2", type=float, help="noise variance")
        p.add_argument(
            "--sinkhorn-tol", dest="sinkhorn_tol", type=float, help="marginal tolerance"
        )
        p.add_argument(
            "--snap-every", dest="snap_every", type=int, help="snapshot period (0 off)"
        )
        p.add_argument(
            "--snapshot-prefix", dest="snapshot_prefix", help="snapshot CSV prefix"
        )
    if kernelish:
        p.add_argument("--features", type=int, help="random-feature count")
        p.add_argument(
            "--feature-scale", dest="feature_scale", type=float, help="table scale"
        )
        p.add_argument("--shift", type=float, help="student initialization offset")
        p.add_argument(
            "--baseline-step", dest="baseline_step", type=float, help="Euler step"
        )
        p.add_argument("--baseline-out", dest="baseline_out", help="baseline CSV path")


def _objective_flags(p):
    p.add_argument("--objective", default="quadratic", help="named potential")
    p.add_argument("--pair", help="named interaction term (optional)")


def cmd_deconv(args):
    cfg = _experiment_config(args, "deconv")
    _, trace, _ = run_deconv(cfg)
    print(f"deconv: {len(trace)} iterations, status {trace.status}")
    print(f"final objective {trace.final_objective:.17g}")
    print(f"trace written to {cfg.out}")
    return EXIT_OK


def cmd_mmd_flow(args):
    cfg = _experiment_config(args, "mmd-flow")
    result = run_mmd_flow(cfg)
    fw_rows, base_rows = result["fw_rows"], result["baseline_rows"]
    print(f"mmd-flow: {len(fw_rows)} outer iterations, status {result['trace'].status}")
    print(f"final val {fw_rows[-1][2]:.17g} (baseline {base_rows[-1][2]:.17g})")
    print(f"traces written to {cfg.out} and {cfg.baseline_out}")
    return EXIT_OK


def cmd_fw(args):
    if args.seed is None:
        raise ValueError("a seed is mandatory; wall-clock seeding is not allowed")
    rng = np.random.default_rng(args.seed)
    if args.init is not None:
        _require_file(args.init)
        mu0 = load_csv(args.init)
    else:
        mu0 = ParticleCloud(rng.uniform(-1.0, 1.0, size=(args.particles, args.dim)))
    J = PotentialInteraction(
        make_objective(args.objective), make_pair(args.pair) if args.pair else None
    )
    smoothness = J.derivative_oracle(mu0, 1.0).smoothness
    cfg = FWConfig.from_schedule(
        tau=args.tau,
        theta=args.theta,
        big_t=args.big_t,
        alpha=args.alpha,
        delta1=args.delta_cap,
        delta2=args.delta_cap,
        smoothness=smoothness,
        eps=args.eps,
        k_max=args.k_max,
        seed=args.seed,
    )
    mu, trace = run_frank_wolfe(J, mu0, cfg)
    trace.to_csv(args.out)
    if args.final_out is not None:
        save_csv(mu, args.final_out)
    print(f"fw: {len(trace)} iterations, status {trace.status}")
    s = mean_squared_gradient_norm(mu, J.derivative_oracle(mu, cfg.eps_hat))
    print(f"final objective {trace.final_objective:.17g}, s {s:.17g}")
    print(f"trace written to {args.out}")
    return EXIT_OK if trace.status == "converged" else EXIT_BUDGET


def cmd_trust_region(args):
    _require_file(args.cloud)
    mu = load_csv(args.cloud)
    sampler, report = trust_region_step(make_objective(args.objective), mu, args.delta, args.eps)
    print(f"lambda={report.lambda_star:.17g}")
    print(f"dual={report.dual_value:.17g}")
    print(f"primal={report.primal_value:.17g}")
    print(f"gap={report.gap:.17g}")
    print(f"radius_share={report.cost / (0.5 * args.delta**2):.17g}")
    print(f"oracle_calls={report.oracle_calls}")
    if args.out is not None:
        save_csv(sampler.target_cloud(), args.out)
        print(f"moved cloud written to {args.out}")
    return EXIT_OK


def cmd_plot(args):
    for path in args.traces:
        _require_file(path)
    emit_plot(
        args.traces,
        args.out,
        args.x,
        args.y,
        log_y=args.log_y,
        title=args.title,
    )
    print(f"chart written to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wfw",
        description="Particle-cloud conditional-gradient optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deconv", help="deconvolve a noisy mixture sample")
    _add_config_flags(p, sigma2=True)
    p.set_defaults(func=cmd_deconv)

    p = sub.add_parser("mmd-flow", help="student-teacher kernel matching")
    _add_config_flags(p, kernelish=True)
    p.set_defaults(func=cmd_mmd_flow)

    p = sub.add_parser("fw", help="run the outer loop on a named functional")
    _objective_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--particles", type=int, default=50)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--k-max", dest="k_max", type=int, default=200)
    p.add_argument("--delta-cap", dest="delta_cap", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--big-t", dest="big_t", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--init", help="initial cloud CSV (default: seeded uniform)")
    p.add_argument("--out", default="fw_trace.csv")
    p.add_argument("--final-out", dest="final_out", help="write final cloud CSV")
    p.set_defaults(func=cmd_fw)

    p = sub.add_parser("trust-region", help="one trust-region step on a cloud")
    _objective_flags(p)
    p.add_argument("--cloud", required=True, help="input cloud CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--out", help="write moved cloud CSV")
    p.set_defaults(func=cmd_trust_region)

    p = sub.add_parser("plot", help="render trace CSVs to a deterministic SVG")
    p.add_argument("traces", nargs="+", help="trace CSV paths")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--x", default="iter", help="x-axis column")
    p.add_argument("--y", default="J", help="y-axis column")
    p.add_argument("--log-y", dest="log_y", action="store_true")
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WfwError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
