"""Benchmark for wfw: time to solution end to end, spans per layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload deconv --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # the four workloads, serially

Workloads are defined in `workloads.py`.  One run builds the workload's
inputs and calls its public entry point repeatedly, single-threaded, until
the next call would end past ``--seconds`` (at least one call), checking the
outputs of every call.  Repeats must replay byte for byte (trace CSVs
without the wall column) and repeat every count; a mismatch fails the run.

Call times are rescaled to a reference host speed by `hostspeed.py`, with
the kernel `workloads.KERNEL` names for the workload; the raw wall time
(``solve_s.wall``) and the median scale (``host_scale``) are printed beside
them.  Outer steps are rescaled one by one, by the kernel samples that fell
in and around each step (`hostspeed.scaled_steps`).  Set-up time is
rescaled by samples taken inside each fresh interpreter (`time_setup`), its
raw median printed as ``setup_s.wall``.

With ``--trace 0`` it reports the end-to-end metrics that BENCHMARK.json
bounds:

- setup_s:      median over fresh interpreters of ``import wfw`` plus
                building the inputs;
- solve_s:      median time of one entry-point call;
- step_ms.p50:  median outer-step time within one call, from the returned
                trace's ``wall_ms`` column less the kernel samples that
                fell in each step, median over the run's calls;
- witness_rows: total ``FWTrace.samples`` of one call;
- final_J:      J of the returned cloud, recomputed through ``J.value``;
- val_ratio:    final over initial held-out discrepancy on mmd-flow, final
                over initial J elsewhere;
- peak_rss_mb:  peak resident memory of this process.

It also prints, unbounded:

- step_ms.p90:  the same at the 90th percentile.  A call has 5 (fw-pair)
                to 144 (mmd-flow) steps, too few for a bounded tail: its
                ten-run spread reached 0.29 even after rescaling;
- fail_frac:    failed over attempted calls, also carried by the
                ``attempted``/``failed`` keys of the result line.

With ``--trace 1`` it times untraced calls for half of ``--seconds``, then
makes one traced call with spans from `tracer.py`, reports the per-layer
metrics (their times unscaled, trace_overhead from raw wall times, so both
carry the host's drift), checks that every moved cloud lies within the
radius used, and writes the spans to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
if not os.path.isdir(os.path.join(SRC, "wfw")):
    sys.exit(f"perfbench: no wfw sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from wfw import frank_wolfe  # noqa: E402

SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "step_ms.p50": "ms",
    "witness_rows": "count",
    "final_J": "objective",
    "val_ratio": "ratio",
    "peak_rss_mb": "MB",
}


_FW_LOOP = frank_wolfe.run_frank_wolfe.__code__


def fw_step(frame):
    """0-based outer step the interrupted code is in, or None outside the loop."""
    while frame is not None:
        if frame.f_code is _FW_LOOP:
            i = frame.f_locals.get("i")
            return None if i is None else i - 1
        frame = frame.f_back
    return None


def timed_call(inputs):
    """(wall seconds less sampling, host sampler, result) of one entry-point call."""
    sampler = hostspeed.Sampler(workloads.KERNEL[inputs.name], tag=fw_step)
    start = time.perf_counter()
    with sampler:
        result = workloads.call_entry_point(inputs)
    elapsed = time.perf_counter() - start - sampler.spent
    return elapsed, sampler, result


def git_commit():
    """HEAD's commit read from .git without running git; "unknown" outside a checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, instance_seed):
    threads = os.environ["OMP_NUM_THREADS"]
    return (
        f"# env python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} nproc={len(os.sched_getaffinity(0))} "
        f"cpus={os.cpu_count()} blas_threads={threads} commit={git_commit()}\n"
        f"# run workload={args.workload} instance_seed={instance_seed} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} tiny={int(args.tiny)}"
    )


SETUP_KERNEL = "logsumexp"


def time_setup(args, instance_seed, out_dir):
    """Median set-up time of fresh interpreters that import wfw and build the inputs.

    Returns (rescaled, wall) medians.  Set-up is interpreter-bound and drifts
    with the host like a call, so each interpreter samples SETUP_KERNEL while
    it imports and builds and prints the samples; its wall time loses their
    time and is rescaled by them.  Sampling needs numpy, so the child
    imports `hostspeed` (numpy and scipy.special, both loaded by wfw too)
    before its samples start.
    """
    code = (
        "import json, hostspeed\n"
        f"sampler = hostspeed.Sampler({SETUP_KERNEL!r})\n"
        "with sampler:\n"
        "    import workloads\n"
        f"    workloads.build({args.workload!r}, {instance_seed}, {args.seed}, "
        f"{out_dir!r}, tiny={args.tiny})\n"
        "print(json.dumps(sampler.samples + hostspeed.kernel_times(sampler.kind)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    rescaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        wall = time.perf_counter() - start
        samples = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(wall - sum(samples))
        rescaled.append(
            walls[-1]
            * hostspeed.REFERENCE_S[SETUP_KERNEL]
            / statistics.harmonic_mean(samples)
        )
    return statistics.median(rescaled), statistics.median(walls)


def _counts(outcome):
    trace = outcome.trace
    return (len(trace), sum(trace.samples), outcome.sinkhorn_solves, outcome.baseline_steps)


class Run:
    """The calls of one benchmark run and the failures seen in them."""

    def __init__(self, args, instance_seed, out_dir):
        self.args = args
        self.instance_seed = instance_seed
        self.out_dir = out_dir
        self.times = []  # wall seconds of each timed call
        self.scales = []  # host scale of each timed call
        self.step_ms = []  # rescaled outer-step times of each timed call
        self.outcomes = []
        self.attempted = 0
        self.failures = []

    def inputs(self):
        a = self.args
        return workloads.build(a.workload, self.instance_seed, a.seed, self.out_dir, a.tiny)

    def record(self, outcome):
        """Count one call; fail it on a check failure or a replay mismatch."""
        problems = list(outcome.failures)
        if self.outcomes:
            first = self.outcomes[0]
            if outcome.fingerprint != first.fingerprint:
                problems.append("trace CSV differs from the first call's")
            if _counts(outcome) != _counts(first):
                problems.append(f"counts {_counts(outcome)} differ from {_counts(first)}")
        self.outcomes.append(outcome)
        self.fail(problems)

    def fail(self, problems):
        if problems:
            self.failures.append(f"call {self.attempted}: " + "; ".join(problems))

    def solve_until(self, budget_s):
        """Untraced calls until the next one would end past budget_s (at least one).

        An untimed call at smoke-test sizes goes first, so lazy imports and
        first-use allocations stay out of the first timed call: a run of
        mmd-flow has only that one.
        """
        a = self.args
        try:
            warm = workloads.build(a.workload, self.instance_seed, a.seed, self.out_dir, True)
            workloads.call_entry_point(warm)
        except Exception:
            self.attempted += 1
            self.fail([traceback.format_exc()])
            return
        begin = time.perf_counter()
        while True:
            inputs = self.inputs()
            self.attempted += 1
            try:
                elapsed, sampler, result = timed_call(inputs)
                scale = sampler.scale()
                outcome = workloads.evaluate(inputs, result)
            except Exception:
                self.fail([traceback.format_exc()])
                return
            self.times.append(elapsed)
            self.scales.append(scale)
            self.step_ms.append(
                hostspeed.scaled_steps(
                    sampler.kind, outcome.trace.wall_ms, sampler.samples, sampler.tags, scale
                )
            )
            self.record(outcome)
            if time.perf_counter() - begin + elapsed > budget_s:
                return

    def solve_s(self):
        """Median rescaled call time."""
        return statistics.median(t * s for t, s in zip(self.times, self.scales))


def end_to_end(run, setup):
    """The bounded end-to-end metrics, and the printed-only ones."""
    # Percentiles within each call, then the median over calls: pooling the
    # steps of all calls would let a few slow seconds on a shared host set p90.
    per_call = [np.percentile(steps, [50, 90]) for steps in run.step_ms]
    p50, p90 = np.median(per_call, axis=0)
    first = run.outcomes[0]
    metrics = {
        "setup_s": setup[0],
        "solve_s": run.solve_s(),
        "step_ms.p50": float(p50),
        "witness_rows": sum(first.trace.samples),
        "final_J": first.final_J,
        "val_ratio": first.val_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    printed = {
        "step_ms.p90": (float(p90), "ms"),
        "setup_s.wall": (setup[1], "s"),
        "solve_s.wall": (statistics.median(run.times), "s"),
        "host_scale": (statistics.median(run.scales), "ratio"),
    }
    return metrics, printed


def traced_call(run):
    """One call with spans installed; returns the per-layer metrics."""
    spans = tracer.Tracer(run_id=1)
    inputs = run.inputs()
    run.attempted += 1
    # No kernel samples here: spans would count them as the layers' time.
    spans.install()
    try:
        start = time.perf_counter()
        result = workloads.call_entry_point(inputs)
        traced_s = time.perf_counter() - start
    finally:
        spans.uninstall()
    outcome = workloads.evaluate(inputs, result)
    layer = tracer.layer_metrics(spans.spans, spans.run_id)
    layer.update(
        {
            "frank_wolfe.iters": len(outcome.trace),
            "functionals.sinkhorn.solves": outcome.sinkhorn_solves,
            "functionals.sinkhorn.err_max": outcome.sinkhorn_err_max,
            "experiments.baseline.steps": outcome.baseline_steps,
            "trace.solve_s": traced_s,
            # Raw wall times: the traced call has no kernel samples to rescale
            # by.  The feasibility oracle is the traced run's own work.
            "trace_overhead": (traced_s - layer["cloud.w2_exact.s"])
            / statistics.median(run.times)
            - 1.0,
        }
    )
    run.record(outcome)
    problems = [
        f"moved cloud at W2 {d!r} outside radius {r!r}" for d, r in spans.w2_violations
    ]
    rows = sum(outcome.trace.samples)
    if layer["frank_wolfe.witness_rows"] != rows:
        problems.append(
            f"spans saw {layer['frank_wolfe.witness_rows']} witness rows, trace {rows}"
        )
    run.fail(problems)
    spans.write_spans(
        os.path.join(run.out_dir, f"spans-{run.args.workload}-seed{run.args.seed}.csv")
    )
    return layer


def _line(name, value, unit):
    shown = value if isinstance(value, int) else f"{value:.6g}"
    return f"{name:38s} {shown} {unit}"


def run_one(args):
    instance_seed = (
        workloads.PINNED_SEEDS[args.workload]
        if args.instance_seed is None
        else args.instance_seed
    )
    out_dir = os.path.join(OUT_DIR, args.workload)
    print(environment(args, instance_seed), flush=True)
    run = Run(args, instance_seed, out_dir)
    extra = {}
    if args.trace:
        run.solve_until(args.seconds / 2.0)
        metrics = traced_call(run) if run.outcomes else None
        units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    else:
        setup = time_setup(args, instance_seed, out_dir)
        run.solve_until(args.seconds)
        metrics = None
        if run.outcomes:
            metrics, extra = end_to_end(run, setup)
        units = END_TO_END
    for problem in run.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    if metrics is None:
        return 1
    for name, unit in units.items():
        print(_line(name, metrics[name], unit))
    for name, (value, unit) in extra.items():
        print(_line(name, value, unit))
    failed = len(run.failures)
    print(_line("fail_frac", failed / run.attempted, f"ratio ({failed}/{run.attempted})"))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.instance_seed is not None:
            cmd += ["--instance-seed", str(args.instance_seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument(
        "--seed", type=int, default=0, help="benchmark seed: reorders initial atoms"
    )
    parser.add_argument(
        "--instance-seed",
        type=int,
        help="problem seed, replacing the workload's pinned one (held-out re-checks)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
