"""Spans around calls into pbcd's public functions, for the traced run only.

A Tracer replaces each target attribute with a wrapper while installed and
puts the original back when uninstalled, so untraced rounds run pbcd
unmodified.  Wrappers go on the name the caller looks up: `run` calls
`pbcd.solver.step` through its module globals, `run_experiment` calls
`pbcd.experiment.write_csv`, and methods are looked up on their class.
Spans are kept in memory (name, start, end, parent, amount, phase) and
written out once at the end.
"""

import csv
import functools
import time

import numpy as np

import pbcd.analysis
import pbcd.experiment
import pbcd.generators
import pbcd.matrixio
import pbcd.problem
import pbcd.sampling
import pbcd.solver

LAYERS = ("sampling", "solver", "smooth", "problem", "experiment", "generators",
          "matrixio", "analysis")


def _size(arg):
    return int(np.asarray(arg).size)


def _targets():
    """(owner, attribute, span name, amount(args, kwargs)) for every wrapper."""
    ex, gen, an = pbcd.experiment, pbcd.generators, pbcd.analysis
    problem_cls = pbcd.problem.CompositeProblem
    out = [
        (pbcd.sampling.BlockSampler, "draw", "sampling.draw", None),
        (pbcd.solver, "step", "solver.step", lambda a, k: _size(a[2])),
        (pbcd.solver, "verify_and_refresh_caches", "solver.refresh", None),
        (pbcd.solver, "init_solver_state", "solver.init_state", None),
        (pbcd.solver, "coordinatewise_constants", "smooth.coordwise_constants", None),
        (pbcd.solver, "run", "solver.run", None),
        (ex, "run", "solver.run", None),
        (problem_cls, "prox_grad_mapping", "problem.mapping_norm", None),
        (problem_cls, "objective", "problem.objective", None),
        (problem_cls, "smooth_gradient", "problem.smooth_gradient", None),
        (ex, "reference_solution", "experiment.reference", None),
        (ex, "write_csv", "experiment.write_csv", lambda a, k: len(a[2])),
        (ex, "run_experiment", "experiment.run_experiment", None),
        (pbcd.matrixio, "load_matrix", "matrixio.load_matrix", None),
        (pbcd.matrixio, "load_vector", "matrixio.load_vector", None),
        (an, "fit_error_bound_constants", "analysis.fit", lambda a, k: len(a[2])),
        (an, "estimate_strong_convexity", "analysis.strong_convexity", None),
        (an, "bundle_from_reference", "analysis.bounds", None),
        (an, "sublinear_gap_bound", "analysis.bounds", None),
        (ex, "sublinear_gap_bound", "analysis.bounds", None),
        (an, "iters_to_confidence_sublinear", "analysis.bounds", None),
        (an, "iters_to_confidence_error_bound", "analysis.bounds", None),
        (an, "linear_rate_strongly_convex", "analysis.bounds", None),
        (an, "error_bound_chain", "analysis.bounds", None),
    ]
    for owner in (gen, ex):
        for name in ("generate_lasso", "generate_logistic", "generate_dual",
                     "lasso_from_matrix", "logistic_from_matrix", "dual_from_data"):
            if hasattr(owner, name):
                out.append((owner, name, "generators.build", None))
    return out


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.amounts, self.phases = [], [], []
        self.phase = -1                 # -1: set-up; k >= 0: round k
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn, amount):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1])
            tracer.phases.append(tracer.phase)
            tracer.amounts.append(amount(args, kwargs) if amount else 0)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer.starts[idx] = start
                tracer._stack.pop()
        return wrapper

    def install(self):
        for owner, attr, name, amount in _targets():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, amount))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(("span", "name", "parent", "phase", "start", "end", "amount"))
            for i, row in enumerate(zip(self.names, self.parents, self.phases,
                                        self.starts, self.ends, self.amounts)):
                out.writerow((i,) + row)

    def metrics(self, traced_rounds):
        """Per-layer metrics: per-call means over all spans, counts and self
        times per traced round."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        amounts = np.array(self.amounts, dtype=float)
        in_round = np.array(self.phases) >= 0
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        rounds = max(1, traced_rounds)

        def sel(name):
            return names == name

        def mean(name, scale):
            s = sel(name)
            return float(dur[s].mean()) * scale if s.any() else 0.0

        def per_round(mask, values=None):
            mask = mask & in_round
            return float((values[mask] if values is not None else mask).sum()) / rounds

        parent_names = np.array([names[p] if p >= 0 else "" for p in parents], dtype=object)
        steps = sel("solver.step")
        build_top = sel("generators.build") & (parent_names != "generators.build")
        ref_grad = sel("problem.smooth_gradient") & (parent_names == "experiment.reference")
        m = {
            "sampling.draw_us": (mean("sampling.draw", 1e6), "us"),
            "sampling.draws": (per_round(sel("sampling.draw")), "count"),
            "solver.step_us_per_block": (
                1e6 * float(dur[steps].sum()) / max(1.0, float(amounts[steps].sum())), "us"),
            "solver.steps": (per_round(steps), "count"),
            "solver.refresh_ms": (mean("solver.refresh", 1e3), "ms"),
            "solver.init_state_ms": (mean("solver.init_state", 1e3), "ms"),
            "smooth.coordwise_constants_ms": (mean("smooth.coordwise_constants", 1e3), "ms"),
            "problem.mapping_norm_us": (mean("problem.mapping_norm", 1e6), "us"),
            "problem.objective_ms": (mean("problem.objective", 1e3), "ms"),
            "problem.smooth_gradient_us": (mean("problem.smooth_gradient", 1e6), "us"),
            "experiment.reference_iters": (per_round(ref_grad), "count"),
            "experiment.write_csv_ms": (mean("experiment.write_csv", 1e3), "ms"),
            "experiment.csv_rows": (per_round(sel("experiment.write_csv"), amounts), "count"),
            "matrixio.load_matrix_ms": (mean("matrixio.load_matrix", 1e3), "ms"),
            "matrixio.load_vector_ms": (mean("matrixio.load_vector", 1e3), "ms"),
            "generators.build_ms": (
                float(dur[build_top].mean()) * 1e3 if build_top.any() else 0.0, "ms"),
            "analysis.fit_ms": (mean("analysis.fit", 1e3), "ms"),
            "analysis.fit_points": (per_round(sel("analysis.fit"), amounts), "count"),
            "analysis.strong_convexity_ms": (mean("analysis.strong_convexity", 1e3), "ms"),
            "trace.spans": (per_round(np.ones(dur.size, dtype=bool)), "count"),
        }
        layers = np.array([n.split(".")[0] for n in names], dtype=object)
        for layer in LAYERS:
            m[f"self_s.{layer}"] = (per_round(layers == layer, self_time), "s")
        return m

