"""Experiment orchestration: reference solves, comparison grids, CSV output.

A run builds one problem, computes a reference optimal value with the
deterministic full proximal-gradient method at tight tolerance, then solves
the problem once per (mode, batch size, seed) cell.  Outputs are plain
CSV: one trace file per cell, one theoretical bound curve file per batch
size, and a summary table pairing the two stepsize rules' normalized
coordinate-update counts.

All numeric CSV fields are written with shortest round-trip formatting, so
repeated runs with the same configuration produce identical data columns;
the wall-time column is the one nondeterministic field.
"""

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .analysis import RateBundle, sublinear_gap_bound
from .errors import InputError
from .generators import (GeneratedProblem, generate_dual, generate_lasso,
                         generate_logistic, lasso_from_matrix)
from .matrixio import load_matrix, load_vector
from .sampling import SamplerConfig
from .solver import MODES, SolverConfig, run

SOURCES = ("generate-lasso", "generate-logistic", "generate-dual", "load-matrix")


@dataclass
class ExperimentConfig:
    source: str = "generate-lasso"
    m: int = 60
    n: int = 80
    num_samples: int = 60          # logistic sample count
    num_parts: int = 8             # dual primal-part count
    sparsity: float = 0.1
    block_size: int = 1
    lam: float = 1.0
    box_lb: float = None
    box_ub: float = None
    noise: float = 0.01
    problem_seed: int = 0
    matrix_path: str = None
    rhs_path: str = None
    seeds: tuple = (0, 1, 2)
    modes: tuple = ("rcd", "rcd-coordwise")
    batch_sizes: tuple = (1,)
    scheme: str = "uniform-subset"
    max_iters: int = 200000
    gap_rtol: float = 1e-4         # stop when F - F* <= gap_rtol * initial gap
    ref_tol: float = 1e-10
    ref_max_iters: int = 500000
    trace_stride: int = 1
    outdir: str = "out"
    write_traces: bool = True
    trace_mapping_norm: bool = True


def build_problem(cfg):
    """Problem plus the data it was built from, for a config."""
    box = None
    if cfg.box_lb is not None or cfg.box_ub is not None:
        lb = cfg.box_lb if cfg.box_lb is not None else -np.inf
        ub = cfg.box_ub if cfg.box_ub is not None else np.inf
        box = (lb, ub)
    if cfg.source == "generate-lasso":
        gen = generate_lasso(cfg.m, cfg.n, cfg.sparsity, lam=cfg.lam, box=box,
                             seed=cfg.problem_seed, block_size=cfg.block_size,
                             noise=cfg.noise)
    elif cfg.source == "generate-logistic":
        gen = generate_logistic(cfg.num_samples, cfg.n, cfg.sparsity,
                                lam=cfg.lam, seed=cfg.problem_seed,
                                block_size=cfg.block_size)
    elif cfg.source == "generate-dual":
        gen = generate_dual(cfg.num_parts, seed=cfg.problem_seed,
                            block_size=cfg.block_size)
    elif cfg.source == "load-matrix":
        if not cfg.matrix_path or not cfg.rhs_path:
            raise InputError("load-matrix needs matrix_path and rhs_path")
        mat = load_matrix(cfg.matrix_path)
        rhs = load_vector(cfg.rhs_path)
        problem = lasso_from_matrix(mat, rhs, cfg.lam, box=box,
                                    block_size=cfg.block_size)
        gen = GeneratedProblem(problem=problem, matrix=mat, rhs=rhs, extras={})
    else:
        raise InputError(f"unknown problem source {cfg.source!r}; "
                         f"choose one of {SOURCES}")
    return gen


def reference_solution(problem, tol=1e-10, max_iters=500000, x0=None):
    """Deterministic full proximal-gradient solve to a tight mapping norm.

    Returns (x*, F*, converged).  Each iteration's candidate doubles as the
    next iterate, so the mapping norm is a free byproduct.  F* comes from
    problem.objective, the same function the solver starts from.
    """
    x = problem.project_domain(np.zeros(problem.n) if x0 is None
                               else np.asarray(x0, float))
    cw = problem.coord_weights
    converged = False
    for _ in range(max_iters):
        step_to = problem.prox(x - problem.smooth_gradient(x) / cw)
        gap = x - step_to
        x = step_to
        if np.sqrt(float((cw * gap) @ gap)) <= tol:
            converged = True
            break
    return x, float(problem.objective(x)), converged


@dataclass
class CellResult:
    mode: str
    batch_size: int
    seed: int
    iterations: int
    coordinate_updates: int
    converged: bool
    status: str
    final_gap: float
    trace: object = field(repr=False, default=None)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    problem: object
    fstar: float
    ref_converged: bool
    initial_gap: float
    cells: list
    summary_rows: list
    files: list


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


@dataclass
class Baseline:
    """Reference solve and starting point shared by every cell of a run."""

    x0: np.ndarray
    xstar: np.ndarray
    fstar: float
    converged: bool
    initial_gap: float
    gap_tol: float


def reference_and_start(problem, cfg):
    """Reference optimum, the projected zero start and the gap tolerance
    gap_rtol * (F(x0) - F*) that stops every cell.

    Every command that solves passes here, so the solve limits are checked
    here: gap_rtol and ref_tol finite and > 0, max_iters and ref_max_iters
    >= 1.
    """
    for name in ("gap_rtol", "ref_tol"):
        if not 0.0 < getattr(cfg, name) < np.inf:
            raise InputError(f"{name} must be finite and > 0")
    for name in ("max_iters", "ref_max_iters"):
        if not getattr(cfg, name) >= 1:
            raise InputError(f"{name} must be >= 1")
    xstar, fstar, ok = reference_solution(problem, tol=cfg.ref_tol,
                                          max_iters=cfg.ref_max_iters)
    x0 = problem.project_domain(np.zeros(problem.n))
    initial_gap = problem.objective(x0) - fstar
    return Baseline(x0=x0, xstar=xstar, fstar=fstar, converged=ok,
                    initial_gap=initial_gap,
                    gap_tol=cfg.gap_rtol * max(initial_gap, 1e-300))


def run_cell(problem, cfg, base, mode, batch, seed):
    """Solve one (mode, batch size, seed) cell to the baseline's gap tolerance."""
    scfg = SolverConfig(
        mode=mode,
        sampler=None if mode == "full"
        else SamplerConfig(batch_size=batch, scheme=cfg.scheme, seed=seed),
        max_iters=cfg.max_iters, eps_gap=base.gap_tol, fstar=base.fstar,
        trace_stride=cfg.trace_stride,
        trace_mapping_norm=cfg.trace_mapping_norm)
    res = run(problem, scfg, base.x0)
    return CellResult(mode=mode, batch_size=batch, seed=seed,
                      iterations=res.iterations,
                      coordinate_updates=res.coordinate_updates,
                      converged=res.converged, status=res.status,
                      final_gap=res.objective - base.fstar, trace=res.trace)


def write_trace(outdir, problem, cell, fstar):
    """Write a cell's trace CSV; updates_per_dim counts block updates per
    block, which is coordinate updates per coordinate for uniform blocks."""
    name = f"trace_{cell.mode}_b{cell.batch_size}_s{cell.seed}.csv"
    path = os.path.join(outdir, name)
    eff = problem.num_blocks if cell.mode == "full" else cell.batch_size
    tr = cell.trace
    rows = [(k, k * eff / problem.num_blocks, f - fstar, g, s, el)
            for k, f, g, s, el in zip(tr.ks, tr.objectives, tr.mapping_norms,
                                      tr.batch_sizes, tr.elapsed)]
    write_csv(path, ("k", "updates_per_dim", "gap", "mapping_norm", "batch",
                     "elapsed_s"), rows)
    return path


def run_experiment(cfg):
    """Run the full comparison grid for one problem; returns the result and
    writes CSV outputs under cfg.outdir."""
    for mode in cfg.modes:
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}")
    gen = build_problem(cfg)
    problem = gen.problem
    for batch in cfg.batch_sizes:
        if not 1 <= batch <= problem.num_blocks:
            raise InputError(f"batch size {batch} outside [1, {problem.num_blocks}]")
    base = reference_and_start(problem, cfg)
    cells = [run_cell(problem, cfg, base, mode, batch, seed)
             for mode in cfg.modes for batch in cfg.batch_sizes
             for seed in cfg.seeds]

    os.makedirs(cfg.outdir, exist_ok=True)
    files = []
    if cfg.write_traces:
        files = [write_trace(cfg.outdir, problem, cell, base.fstar)
                 for cell in cells]

    # theoretical sublinear envelopes per batch size, on the trace grid
    radius = problem.norm_w(base.x0 - base.xstar)
    for batch in cfg.batch_sizes:
        bundle = RateBundle(num_blocks=problem.num_blocks, batch_size=batch,
                            radius=radius, initial_gap=max(base.initial_gap, 0.0))
        ks = sorted({k for c in cells if c.batch_size == batch
                     for k in c.trace.ks})
        rows = [(k, sublinear_gap_bound(bundle, k)) for k in ks]
        path = os.path.join(cfg.outdir, f"bounds_b{batch}.csv")
        write_csv(path, ("k", "sublinear_gap_bound"), rows)
        files.append(path)

    summary_rows = []
    for batch in cfg.batch_sizes:
        density = gen.matrix.nnz / (gen.matrix.rows * gen.matrix.cols)
        row = {
            "n": problem.n, "m": gen.matrix.rows, "sparsity": density,
            "max_components_per_block": problem.max_components_per_block,
            "max_blocks_per_component": problem.max_blocks_per_component,
            "batch_size": batch, "fstar": base.fstar,
        }
        for mode in cfg.modes:
            sel = [c for c in cells if c.mode == mode and c.batch_size == batch]
            mean_updates = float(np.mean([c.coordinate_updates for c in sel]))
            row[f"updates_per_dim_{mode.replace('-', '_')}"] = \
                mean_updates / problem.num_blocks
            row[f"converged_{mode.replace('-', '_')}"] = \
                all(c.converged for c in sel)
        summary_rows.append(row)
    header = list(summary_rows[0].keys())
    path = os.path.join(cfg.outdir, "summary.csv")
    write_csv(path, header, [tuple(r[h] for h in header) for r in summary_rows])
    files.append(path)

    return ExperimentResult(config=cfg, problem=problem, fstar=base.fstar,
                            ref_converged=base.converged,
                            initial_gap=base.initial_gap,
                            cells=cells, summary_rows=summary_rows, files=files)


# -- configuration files -------------------------------------------------------

_SECTIONS = {
    "problem": ("source", "m", "n", "num_samples", "num_parts", "sparsity",
                "block_size", "lam", "box_lb", "box_ub", "noise",
                "problem_seed", "matrix_path", "rhs_path"),
    "solve": ("seeds", "modes", "batch_sizes", "scheme", "max_iters",
              "gap_rtol", "ref_tol", "ref_max_iters"),
    "output": ("outdir", "trace_stride", "write_traces",
               "trace_mapping_norm"),
}

_INT_FIELDS = {"m", "n", "num_samples", "num_parts", "block_size",
               "problem_seed", "max_iters", "ref_max_iters", "trace_stride"}
_FLOAT_FIELDS = {"sparsity", "lam", "box_lb", "box_ub", "noise", "gap_rtol",
                 "ref_tol"}
_BOOL_FIELDS = {"write_traces", "trace_mapping_norm"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_LIST_INT_FIELDS = {"seeds", "batch_sizes"}
_LIST_STR_FIELDS = {"modes"}


def load_config(path, overrides=None):
    """ExperimentConfig from an INI file; `overrides` (field -> value) wins.

    Schema: [problem], [solve], [output] sections; list fields are
    comma-separated.  Unknown keys are rejected.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise InputError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InputError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise InputError(f"{path}: unknown key {key!r} in [{section}]")
            values[key] = _parse_field(key, raw, path)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def _parse_field(key, raw, path="<config>"):
    raw = raw.strip()
    try:
        if key in _INT_FIELDS:
            return int(raw)
        if key in _FLOAT_FIELDS:
            return float(raw)
        if key in _BOOL_FIELDS:
            if raw.lower() in _BOOL_WORDS:
                return _BOOL_WORDS[raw.lower()]
            raise ValueError(f"{raw!r} is not one of {', '.join(_BOOL_WORDS)}")
        if key in _LIST_INT_FIELDS or key in _LIST_STR_FIELDS:
            items = tuple(v.strip() for v in raw.split(",") if v.strip())
            if not items:
                raise ValueError("empty list")
            return tuple(map(int, items)) if key in _LIST_INT_FIELDS else items
    except ValueError as exc:
        raise InputError(f"{path}: bad value for {key!r}: {exc}") from None
    return raw
