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
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from .analysis import RateBundle, sublinear_gap_bound
from .errors import InputError
from .generators import (GeneratedProblem, generate_dual, generate_lasso,
                         generate_logistic, lasso_from_matrix)
from .matrixio import load_matrix, load_vector
from .sampling import SCHEMES, SamplerConfig
from .solver import MODES, SolverConfig, run

SOURCES = ("generate-lasso", "generate-logistic", "generate-dual", "load-matrix")


def _field(section, default, help=None, choices=None):
    """A config field read from INI section `section`; `choices` limits its
    value, or each item of a tuple field."""
    return field(default=default, metadata={"section": section, "help": help,
                                            "choices": choices})


@dataclass
class ExperimentConfig:
    """One experiment.  This is the only declaration of the config schema:
    each field is the key of the same name in its INI section, typed by its
    annotation, and a flag of the commands that read a config (pbcd.cli)."""

    source: str = _field("problem", "generate-lasso", choices=SOURCES)
    m: int = _field("problem", 60, "rows / constraint count")
    n: int = _field("problem", 80, "variable dimension")
    num_samples: int = _field("problem", 60, "logistic sample count")
    num_parts: int = _field("problem", 8, "dual primal-part count")
    sparsity: float = _field("problem", 0.1)
    block_size: int = _field("problem", 1)
    lam: float = _field("problem", 1.0, "l1 weight")
    box_lb: float = _field("problem", -np.inf)
    box_ub: float = _field("problem", np.inf)
    noise: float = _field("problem", 0.01)
    problem_seed: int = _field("problem", 0)
    matrix_path: str = _field("problem", None)
    rhs_path: str = _field("problem", None)
    seeds: tuple[int, ...] = _field("solve", (0, 1, 2), "comma-separated run seeds")
    modes: tuple[str, ...] = _field("solve", ("rcd", "rcd-coordwise"), choices=MODES)
    batch_sizes: tuple[int, ...] = _field("solve", (1,), "comma-separated tau values")
    scheme: str = _field("solve", "uniform-subset", choices=SCHEMES)
    max_iters: int = _field("solve", 200000)
    gap_rtol: float = _field("solve", 1e-4, "stop at F - F* <= gap_rtol * initial gap")
    ref_tol: float = _field("solve", 1e-10)
    ref_max_iters: int = _field("solve", 500000)
    trace_stride: int = _field("output", 1)
    outdir: str = _field("output", "out")
    write_traces: bool = _field("output", True, "write one trace CSV per cell")
    trace_mapping_norm: bool = _field("output", True, "fill the mapping-norm column")


def build_problem(cfg):
    """Problem plus the data it was built from, for a config."""
    box = (cfg.box_lb, cfg.box_ub)
    if cfg.source == "generate-lasso":
        return generate_lasso(cfg.m, cfg.n, cfg.sparsity, lam=cfg.lam, box=box,
                              seed=cfg.problem_seed, block_size=cfg.block_size,
                              noise=cfg.noise)
    if cfg.source == "generate-logistic":
        return generate_logistic(cfg.num_samples, cfg.n, cfg.sparsity,
                                 lam=cfg.lam, seed=cfg.problem_seed,
                                 block_size=cfg.block_size)
    if cfg.source == "generate-dual":
        return generate_dual(cfg.num_parts, seed=cfg.problem_seed,
                             block_size=cfg.block_size)
    if cfg.source == "load-matrix":
        if not cfg.matrix_path or not cfg.rhs_path:
            raise InputError("load-matrix needs matrix_path and rhs_path")
        mat = load_matrix(cfg.matrix_path)
        rhs = load_vector(cfg.rhs_path)
        problem = lasso_from_matrix(mat, rhs, cfg.lam, box=box,
                                    block_size=cfg.block_size)
        return GeneratedProblem(problem=problem, matrix=mat, rhs=rhs, extras={})
    raise InputError(f"unknown problem source {cfg.source!r}; "
                     f"choose one of {SOURCES}")


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

    # per batch size: the sublinear envelope on the trace grid, a summary row
    radius = problem.norm_w(base.x0 - base.xstar)
    density = gen.matrix.nnz / (gen.matrix.rows * gen.matrix.cols)
    summary_rows = []
    for batch in cfg.batch_sizes:
        bundle = RateBundle(num_blocks=problem.num_blocks, batch_size=batch,
                            radius=radius, initial_gap=max(base.initial_gap, 0.0))
        ks = sorted({k for c in cells if c.batch_size == batch
                     for k in c.trace.ks})
        rows = [(k, sublinear_gap_bound(bundle, k)) for k in ks]
        path = os.path.join(cfg.outdir, f"bounds_b{batch}.csv")
        write_csv(path, ("k", "sublinear_gap_bound"), rows)
        files.append(path)
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

_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def load_config(path, overrides=None):
    """ExperimentConfig from an INI file; `overrides` (field -> value) wins.

    Schema: each field of ExperimentConfig is a key of its [problem],
    [solve] or [output] section; list fields are comma-separated.  Unknown
    sections and keys are rejected.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise InputError(f"cannot read config file {path}")
    sections = {f.metadata["section"] for f in _FIELDS.values()}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise InputError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _FIELDS or _FIELDS[key].metadata["section"] != section:
                raise InputError(f"{path}: unknown key {key!r} in [{section}]")
            values[key] = parse_field(key, raw, path)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def parse_field(key, raw, where="<config>"):
    """Value of config field `key` from the text of its INI key or flag.

    The field's annotation gives the type: int, float, str, bool (a word of
    configparser's BOOLEAN_STATES) or tuple[item, ...], a comma-separated
    list.  Empty values, and values or list items outside the field's
    choices, are rejected.  `where` names the file or flag in the error.
    """
    spec = _FIELDS[key]
    is_list = get_origin(spec.type) is tuple
    kind = get_args(spec.type)[0] if is_list else spec.type
    texts = [v.strip() for v in (raw.split(",") if is_list else [raw]) if v.strip()]
    try:
        if not texts:
            raise ValueError("empty value")
        items = tuple(_parse_scalar(kind, spec.metadata["choices"], text)
                      for text in texts)
    except ValueError as exc:
        raise InputError(f"{where}: bad value for {key!r}: {exc}") from None
    return items if is_list else items[0]


def _parse_scalar(kind, choices, text):
    if kind is bool:
        choices, text = configparser.ConfigParser.BOOLEAN_STATES, text.lower()
    if choices is not None and text not in choices:
        raise ValueError(f"{text!r} is not one of {', '.join(choices)}")
    return choices[text] if kind is bool else kind(text)
