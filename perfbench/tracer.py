"""Spans around the public functions of each wfw module, from outside the package.

`Tracer.install` replaces each traced name where its caller looks it up and
`Tracer.uninstall` puts the originals back; nothing in ``src/wfw`` changes.
A span records its name, parent span, start, end and the run id of the
solve it belongs to, plus the work it did (rows, prox iterations, ...).
Spans stay in memory until `write_spans` at the end of the benchmark.

Layers and the names patched for them:

- experiments:  run_deconv, run_mmd_flow, mmd_gradient_flow (the Euler baseline)
- frank_wolfe:  run_frank_wolfe, estimate_gradient_norm
- cloud:        mean_squared_gradient_norm as frank_wolfe calls it; the
                exact-OT feasibility check the traced run adds per step
- dual_solvers: trust_region_step as frank_wolfe calls it, primal_dual_bisection
- moreau:       agd_prox_batch in both moreau and dual_solvers,
                g_value_and_grad_fullbatch as dual_solvers calls it
- functionals:  value and derivative_oracle of the three functionals, and
                grad/grad_many/eval/eval_many of the models the oracles return

`registry` gets no spans: its per-pair closures run inside witness calls,
up to 7.2M times per fw-pair solve, and spans there would swamp the trace.

Which end-to-end metric each layer metric should move, on which workloads,
and where it should not move, written down before any change is measured:

- functionals.oracle.*, functionals.value.*, functionals.sinkhorn.*:
  solve_s and step_ms.* on deconv; no change on mmd-flow, fw-rate, fw-pair
  (no Sinkhorn).
- functionals.value.s (MMD), experiments.baseline.*: solve_s on mmd-flow,
  not step_ms.* (the baseline runs after the outer loop); no change on
  deconv, fw-rate, fw-pair.
- functionals.grad.*, functionals.eval.*: solve_s on fw-pair (most),
  deconv, mmd-flow; no change on fw-rate (identity witness).
- cloud.msgn.*: solve_s on mmd-flow; no change on fw-rate.
- moreau.prox.*, moreau.fullbatch.*: solve_s and witness_rows on fw-rate
  (most) and deconv; no change in setup_s, nor in final_J beyond solver
  tolerance.
- dual_solvers.*: solve_s and witness_rows on fw-rate, deconv, fw-pair
  (tr_step.rejected moves step_ms.p90); no change on the Euler-baseline
  part of mmd-flow.
- frank_wolfe.*, experiments.self_s: step_ms.* on all workloads.
- cloud.w2_exact.*, dual_solvers.step.w2_over_delta_max: nothing; they
  measure the exact-OT oracle the traced run's feasibility check uses.
- trace.solve_s, trace_overhead (traced over untraced solve_s, less the
  feasibility check), trace.coverage (share of the entry-point span that
  child spans cover): the tracer itself.
"""

import dataclasses
import math
import time

from wfw import cloud, dual_solvers, experiments, frank_wolfe, functionals, moreau

_FUNCTIONALS = (
    functionals.EntropicDeconv,
    functionals.MMDSquared,
    functionals.PotentialInteraction,
)

# (module, attribute, span name): each name as its caller looks it up.
_MODULE_PATCHES = (
    (experiments, "run_deconv", "experiments.run"),
    (experiments, "run_mmd_flow", "experiments.run"),
    (experiments, "mmd_gradient_flow", "experiments.baseline"),
    (experiments, "run_frank_wolfe", "frank_wolfe.run"),
    (frank_wolfe, "run_frank_wolfe", "frank_wolfe.run"),
    (frank_wolfe, "estimate_gradient_norm", "frank_wolfe.norm"),
    (frank_wolfe, "mean_squared_gradient_norm", "cloud.msgn"),
    (dual_solvers, "primal_dual_bisection", "dual_solvers.bisection"),
    (dual_solvers, "g_value_and_grad_fullbatch", "moreau.fullbatch"),
    (moreau, "agd_prox_batch", "moreau.prox"),
    (dual_solvers, "agd_prox_batch", "moreau.prox"),
)

# name: (unit, better) for every metric `layer_metrics` emits.
LAYER_METRICS = {
    "functionals.oracle.calls": ("count", "lower"),
    "functionals.oracle.s": ("s", "lower"),
    "functionals.value.calls": ("count", "lower"),
    "functionals.value.s": ("s", "lower"),
    "functionals.sinkhorn.solves": ("count", "lower"),
    "functionals.sinkhorn.err_max": ("l1", "lower"),
    "functionals.grad.calls": ("count", "lower"),
    "functionals.grad.rows": ("count", "lower"),
    "functionals.grad.s": ("s", "lower"),
    "functionals.eval.rows": ("count", "lower"),
    "functionals.eval.s": ("s", "lower"),
    "experiments.baseline.s": ("s", "lower"),
    "experiments.baseline.steps": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "cloud.msgn.calls": ("count", "lower"),
    "cloud.msgn.s": ("s", "lower"),
    "cloud.w2_exact.calls": ("count", "lower"),
    "cloud.w2_exact.s": ("s", "lower"),
    "moreau.prox.calls": ("count", "lower"),
    "moreau.prox.rows": ("count", "lower"),
    "moreau.prox.row_iters": ("count", "lower"),
    "moreau.prox.grad_evals": ("count", "lower"),
    "moreau.prox.self_s": ("s", "lower"),
    "moreau.fullbatch.calls": ("count", "lower"),
    "moreau.fullbatch.s": ("s", "lower"),
    "dual_solvers.tr_step.calls": ("count", "lower"),
    "dual_solvers.tr_step.rejected": ("count", "lower"),
    "dual_solvers.tr_step.accept_ratio": ("ratio", "higher"),
    "dual_solvers.tr_step.self_s": ("s", "lower"),
    "dual_solvers.tr_step.extra_passes": ("count", "lower"),
    "dual_solvers.bisection.oracle_calls": ("count", "lower"),
    "dual_solvers.bisection.self_s": ("s", "lower"),
    "dual_solvers.passes_per_step": ("count", "lower"),
    "dual_solvers.gap_max": ("objective", "lower"),
    "dual_solvers.step.w2_over_delta_max": ("ratio", "lower"),
    "frank_wolfe.iters": ("count", "lower"),
    "frank_wolfe.witness_rows": ("count", "lower"),
    "frank_wolfe.norm.s": ("s", "lower"),
    "frank_wolfe.self_s": ("s", "lower"),
    "trace.solve_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace_overhead": ("ratio", "lower"),
}

W2_SLACK = 1e-6


def _rows(z):
    shape = getattr(z, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


class Tracer:
    """In-memory span recorder; spans of one solve share `run_id`.

    A span is the tuple (run_id, name, parent index, start, end, info); info
    is the span's work record (rows, prox iterations, step outcome) or None.
    """

    def __init__(self, run_id):
        self.spans = []
        self.run_id = run_id
        self._stack = [-1]
        self._saved = []
        self.w2_violations = []

    def span(self, name, fn, info=None):
        """Wrap fn so each call records a span; info(args, result) -> work record."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (self.run_id, name, parent, start, time.perf_counter(), "raised")
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (
                self.run_id,
                name,
                parent,
                start,
                end,
                None if info is None else info(args, result),
            )
            return result

        return traced

    def _wrap_model(self, model):
        def rows_of(args, _):
            return _rows(args[0])

        swaps = {
            "grad": self.span("functionals.grad", model.grad, lambda a, r: 1),
            "eval": self.span("functionals.eval", model.eval, lambda a, r: 1),
        }
        if model.grad_many is not None:
            swaps["grad_many"] = self.span("functionals.grad", model.grad_many, rows_of)
        if model.eval_many is not None:
            swaps["eval_many"] = self.span("functionals.eval", model.eval_many, rows_of)
        return dataclasses.replace(model, **swaps)

    def _oracle(self, method):
        traced = self.span("functionals.oracle", method)

        def derivative_oracle(J, mu, eps):
            return self._wrap_model(traced(J, mu, eps))

        return derivative_oracle

    def _trust_region_step(self, fn):
        """Trust-region step span plus the traced run's feasibility check.

        The check runs after the step's span closes, in its own
        ``cloud.w2_exact`` span, and records every moved cloud whose exact
        transport distance exceeds the radius actually used.
        """
        traced = self.span(
            "dual_solvers.tr_step", fn, lambda a, r: ("accepted", a[2], r[1].gap)
        )
        w2 = self.span("cloud.w2_exact", cloud.wasserstein2_exact)

        def trust_region_step(f, mu, delta, *args, **kwargs):
            idx = len(self.spans)
            sampler, report = traced(f, mu, delta, *args, **kwargs)
            dist, _ = w2(mu, sampler.target_cloud())
            if not dist <= delta * math.sqrt(1.0 + W2_SLACK):
                self.w2_violations.append((dist, delta))
            record = self.spans[idx]
            self.spans[idx] = record[:5] + (record[5] + (dist / delta,),)
            return sampler, report

        return trust_region_step

    def install(self):
        def put(owner, attr, replacement):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        for module, attr, name in _MODULE_PATCHES:
            info = None
            if name == "moreau.prox":
                info = lambda a, r: (_rows(a[1]), int(r[2].sum()), int(r[3].sum()))
            elif name == "dual_solvers.bisection":
                info = lambda a, r: r.oracle_calls
            put(module, attr, self.span(name, getattr(module, attr), info))
        step = self._trust_region_step(frank_wolfe.trust_region_step)
        put(frank_wolfe, "trust_region_step", step)
        for cls in _FUNCTIONALS:
            put(cls, "value", self.span("functionals.value", cls.value))
            put(cls, "derivative_oracle", self._oracle(cls.derivative_oracle))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start_s,end_s,info\n")
            for idx, (run, name, parent, start, end, info) in enumerate(self.spans):
                detail = "" if info is None else str(info).replace(",", ";")
                fh.write(f"{run},{idx},{parent},{name},{start:.9f},{end:.9f},{detail}\n")


def layer_metrics(spans, run_id):
    """Per-layer counts and times for the spans of one traced solve.

    Self time is a span's duration minus the time its child spans cover.
    """
    index = [i for i, s in enumerate(spans) if s[0] == run_id]
    child = {i: 0.0 for i in index}
    for i in index:
        parent = spans[i][2]
        if parent in child:
            child[parent] += spans[i][4] - spans[i][3]

    total = {}
    self_time = {}
    calls = {}
    m = {name: 0 for name in LAYER_METRICS}
    rows = {"functionals.grad": 0, "functionals.eval": 0}
    under_fw = {}
    dual_owner = {}
    prox = [0, 0, 0, 0]  # calls, rows, row iterations, gradient evaluations
    steps = {"calls": 0, "rejected": 0, "passes": 0, "extra": 0}
    gap_max = -math.inf
    w2_ratio = 0.0
    bisection_calls = 0
    entry = None

    for i in index:
        _, name, parent, start, end, info = spans[i]
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if entry is None and parent not in child:
            entry = i
        under_fw[i] = name == "frank_wolfe.run" or under_fw.get(parent, False)
        if name in ("dual_solvers.tr_step", "dual_solvers.bisection"):
            dual_owner[i] = name
        else:
            dual_owner[i] = dual_owner.get(parent)
        if name in rows and info != "raised":
            rows[name] += info
            if name == "functionals.grad" and under_fw[i]:
                m["frank_wolfe.witness_rows"] += info
        elif name == "moreau.prox" and info != "raised":
            prox[0] += 1
            prox[1] += info[0]
            prox[2] += info[1]
            prox[3] += info[2]
            if dual_owner.get(parent) is not None:
                steps["passes"] += 1
            if dual_owner.get(parent) == "dual_solvers.tr_step":
                steps["extra"] += 1
        elif name == "dual_solvers.tr_step":
            steps["calls"] += 1
            if info == "raised":
                steps["rejected"] += 1
            else:
                gap_max = max(gap_max, info[2])
                w2_ratio = max(w2_ratio, info[3])
        elif name == "dual_solvers.bisection" and info != "raised":
            bisection_calls += info

    accepted = steps["calls"] - steps["rejected"]
    entry_s = spans[entry][4] - spans[entry][3]
    m.update(
        {
            "functionals.oracle.calls": calls.get("functionals.oracle", 0),
            "functionals.oracle.s": total.get("functionals.oracle", 0.0),
            "functionals.value.calls": calls.get("functionals.value", 0),
            "functionals.value.s": total.get("functionals.value", 0.0),
            "functionals.grad.calls": calls.get("functionals.grad", 0),
            "functionals.grad.rows": rows["functionals.grad"],
            "functionals.grad.s": total.get("functionals.grad", 0.0),
            "functionals.eval.rows": rows["functionals.eval"],
            "functionals.eval.s": total.get("functionals.eval", 0.0),
            "experiments.baseline.s": total.get("experiments.baseline", 0.0),
            "experiments.self_s": self_time.get("experiments.run", 0.0)
            + self_time.get("experiments.baseline", 0.0),
            "cloud.msgn.calls": calls.get("cloud.msgn", 0),
            "cloud.msgn.s": total.get("cloud.msgn", 0.0),
            "cloud.w2_exact.calls": calls.get("cloud.w2_exact", 0),
            "cloud.w2_exact.s": total.get("cloud.w2_exact", 0.0),
            "moreau.prox.calls": prox[0],
            "moreau.prox.rows": prox[1],
            "moreau.prox.row_iters": prox[2],
            "moreau.prox.grad_evals": prox[3],
            "moreau.prox.self_s": self_time.get("moreau.prox", 0.0),
            "moreau.fullbatch.calls": calls.get("moreau.fullbatch", 0),
            "moreau.fullbatch.s": total.get("moreau.fullbatch", 0.0),
            "dual_solvers.tr_step.calls": steps["calls"],
            "dual_solvers.tr_step.rejected": steps["rejected"],
            "dual_solvers.tr_step.accept_ratio": accepted / steps["calls"]
            if steps["calls"]
            else 0.0,
            "dual_solvers.tr_step.self_s": self_time.get("dual_solvers.tr_step", 0.0),
            "dual_solvers.tr_step.extra_passes": steps["extra"] / accepted
            if accepted
            else 0.0,
            "dual_solvers.bisection.oracle_calls": bisection_calls,
            "dual_solvers.bisection.self_s": self_time.get("dual_solvers.bisection", 0.0),
            "dual_solvers.passes_per_step": steps["passes"] / accepted if accepted else 0.0,
            "dual_solvers.gap_max": gap_max if accepted else 0.0,
            "dual_solvers.step.w2_over_delta_max": w2_ratio,
            "frank_wolfe.norm.s": total.get("frank_wolfe.norm", 0.0),
            "frank_wolfe.self_s": self_time.get("frank_wolfe.run", 0.0),
            "trace.coverage": child[entry] / entry_s if entry_s else 0.0,
        }
    )
    return m
