"""Command-line interface.

Subcommands: generate, solve, compare, bounds, gebp-fit.  Every experiment
field is a flag read as its INI key; --config loads an INI file first and
flags override it.  Exit codes: 0 success, 2 bad input, 3 inconsistent structure,
4 internal solver check failure, 6 error-bound counter-witness found,
1 unexpected failure.
"""

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .analysis import (RateBundle, error_bound_chain, fit_error_bound_constants,
                       iters_to_confidence_error_bound,
                       iters_to_confidence_sublinear,
                       linear_rate_strongly_convex, sublinear_gap_bound)
from .errors import (CacheConsistencyError, DescentViolationError,
                     ErrorBoundWitnessError, InputError, StructureError)
from .experiment import (ExperimentConfig, build_problem, load_config,
                         parse_field, reference_and_start, run_cell,
                         run_experiment, write_csv, write_trace)
from .matrixio import save_matrix, save_vector

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INPUT = 2
EXIT_STRUCTURE = 3
EXIT_INTERNAL = 4
EXIT_WITNESS = 6

# gebp-fit draws each sample's weighted distance from x* in [this, --sample-radius]
_MIN_SAMPLE_RADIUS = 0.05

# flags not spelled --<field name with dashes>
_FLAG_NAMES = {"matrix_path": "--matrix", "rhs_path": "--rhs",
               "write_traces": "--no-traces",
               "trace_mapping_norm": "--no-mapping-norm"}


def _flag(spec):
    return _FLAG_NAMES.get(spec.name, "--" + spec.name.replace("_", "-"))


def _config_command(sub, name, func, help_text, keep=lambda spec: True):
    """Subcommand with --config plus one flag per ExperimentConfig field that
    `keep` accepts.  A flag stores its text for _experiment_config to parse
    as the field's INI key; a bool field's flag sets the opposite of the
    default."""
    parser = sub.add_parser(name, help=help_text)
    parser.set_defaults(func=func)
    parser.add_argument("--config", help="INI config file (flags override it)")
    for spec in fields(ExperimentConfig):
        if not keep(spec):
            continue
        text, choices = spec.metadata["help"], spec.metadata["choices"]
        if spec.type is bool:
            parser.add_argument(_flag(spec), dest=spec.name, help=f"do not {text}",
                                action="store_const", const=str(not spec.default))
        else:
            parser.add_argument(_flag(spec), dest=spec.name, help=text, metavar=(
                "{" + ",".join(choices) + "}" if choices else None))
    return parser


def _experiment_config(args):
    overrides = {}
    for spec in fields(ExperimentConfig):
        text = getattr(args, spec.name, None)
        if text is not None:
            overrides[spec.name] = parse_field(spec.name, text, _flag(spec))
    if args.config:
        return load_config(args.config, overrides)
    return ExperimentConfig(**overrides)


def cmd_generate(args):
    cfg = _experiment_config(args)
    gen = build_problem(cfg)
    os.makedirs(cfg.outdir, exist_ok=True)
    mat_path = os.path.join(cfg.outdir, "matrix.mtx")
    rhs_path = os.path.join(cfg.outdir, "rhs.vec")
    save_matrix(mat_path, gen.matrix)
    save_vector(rhs_path, gen.rhs)
    print(f"matrix: {mat_path} ({gen.matrix.rows} x {gen.matrix.cols}, "
          f"{gen.matrix.nnz} nonzeros)")
    print(f"rhs: {rhs_path}")
    print(f"blocks: {gen.problem.num_blocks}  components: "
          f"{gen.problem.num_components}")
    print(f"max_blocks_per_component: {gen.problem.max_blocks_per_component}")
    print(f"max_components_per_block: {gen.problem.max_components_per_block}")
    return EXIT_OK


def cmd_solve(args):
    cfg = _experiment_config(args)
    problem = build_problem(cfg).problem
    base = reference_and_start(problem, cfg)
    mode, batch, seed = cfg.modes[0], cfg.batch_sizes[0], cfg.seeds[0]
    cell = run_cell(problem, cfg, base, mode, batch, seed)
    os.makedirs(cfg.outdir, exist_ok=True)
    path = write_trace(cfg.outdir, problem, cell, base.fstar)
    print(f"reference optimum: {base.fstar!r} (converged: {base.converged})")
    print(f"mode {mode}, batch {batch}, seed {seed}: {cell.status} after "
          f"{cell.iterations} iterations, gap {float(cell.final_gap)!r}")
    print(f"trace: {path}")
    return EXIT_OK


def cmd_compare(args):
    cfg = _experiment_config(args)
    result = run_experiment(cfg)
    print(f"reference optimum: {result.fstar!r} "
          f"(converged: {result.ref_converged})")
    for row in result.summary_rows:
        print(", ".join(f"{k}={v}" for k, v in row.items()))
    print(f"wrote {len(result.files)} files under {cfg.outdir}")
    return EXIT_OK


def cmd_bounds(args):
    if args.k_max < 0 or args.k_stride < 1:
        raise InputError("--k-max must be >= 0 and --k-stride >= 1")
    bundle = RateBundle(num_blocks=args.num_blocks, batch_size=args.batch_size,
                        radius=args.radius, initial_gap=args.initial_gap,
                        strong_convexity=args.strong_convexity,
                        eb_const=args.eb_const, eb_quad=args.eb_quad)
    rows = [(k, sublinear_gap_bound(bundle, k))
            for k in range(0, args.k_max + 1, args.k_stride)]
    print(f"sublinear gap bound at k={args.k_max}: "
          f"{sublinear_gap_bound(bundle, args.k_max)!r}")
    if args.strong_convexity is not None:
        factor = linear_rate_strongly_convex(bundle)
        print(f"strongly convex per-iteration factor: {factor!r}")
    if args.eb_const is not None and args.eb_quad is not None:
        coupling, c1, c2, c3, theta = error_bound_chain(bundle)
        print(f"error-bound chain: coupling={coupling!r} c1={c1!r} "
              f"c2={c2!r} c3={c3!r} theta={theta!r}")
    if args.eps is not None and args.rho is not None:
        k_sub = iters_to_confidence_sublinear(bundle, args.eps, args.rho)
        print(f"iterations for eps={args.eps} at confidence {1 - args.rho}: "
              f"{k_sub} (sublinear)")
        if args.eb_const is not None and args.eb_quad is not None:
            k_eb = iters_to_confidence_error_bound(bundle, args.eps, args.rho)
            print(f"iterations for eps={args.eps} at confidence "
                  f"{1 - args.rho}: {k_eb} (error bound)")
    if args.out:
        write_csv(args.out, ("k", "sublinear_gap_bound"), rows)
        print(f"curve: {args.out}")
    return EXIT_OK


def cmd_gebp_fit(args):
    if args.samples < 1 or not _MIN_SAMPLE_RADIUS <= args.sample_radius < np.inf:
        raise InputError("--samples must be >= 1 and --sample-radius finite "
                         f"and >= {_MIN_SAMPLE_RADIUS}")
    cfg = _experiment_config(args)
    problem = build_problem(cfg).problem
    base = reference_and_start(problem, cfg)
    if not base.converged:
        print("warning: reference solve did not reach tolerance",
              file=sys.stderr)
    rng = np.random.Generator(np.random.Philox(args.sample_seed))
    points = []
    for _ in range(args.samples):
        raw = rng.normal(size=problem.n)
        scale = float(rng.uniform(_MIN_SAMPLE_RADIUS, args.sample_radius))
        points.append(problem.project_domain(
            base.xstar + raw * (scale / problem.norm_w(raw))))
    fit = fit_error_bound_constants(problem, base.xstar, points)
    print(f"samples: {len(points)}  (weighted radius <= {args.sample_radius})")
    print(f"fitted error-bound coefficients: const={fit.const_coeff!r} "
          f"quad={fit.quad_coeff!r}")
    print(f"max violation: {fit.max_violation!r}")
    finite = fit.classical_ratios[np.isfinite(fit.classical_ratios)]
    if finite.size:
        print("largest classical ratio distance/residual: "
              f"{float(finite.max())!r}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pbcd",
        description="Parallel block-coordinate descent benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    _config_command(sub, "generate", cmd_generate,
                    "generate a problem and save matrix/vector files",
                    lambda spec: spec.metadata["section"] == "problem"
                    or spec.name == "outdir")
    _config_command(sub, "solve", cmd_solve,
                    "solve one configuration and write its trace")
    _config_command(sub, "compare", cmd_compare,
                    "run the mode x batch x seed grid and write the summary table")

    p_b = sub.add_parser("bounds", help="evaluate the theoretical rate bounds")
    p_b.add_argument("--num-blocks", type=int, required=True)
    p_b.add_argument("--batch-size", type=int, required=True)
    p_b.add_argument("--radius", type=float, required=True)
    p_b.add_argument("--initial-gap", type=float, required=True)
    p_b.add_argument("--strong-convexity", type=float)
    p_b.add_argument("--eb-const", type=float)
    p_b.add_argument("--eb-quad", type=float)
    p_b.add_argument("--eps", type=float)
    p_b.add_argument("--rho", type=float)
    p_b.add_argument("--k-max", type=int, default=1000)
    p_b.add_argument("--k-stride", type=int, default=10)
    p_b.add_argument("--out")
    p_b.set_defaults(func=cmd_bounds)

    p_fit = _config_command(sub, "gebp-fit", cmd_gebp_fit, "fit generalized error "
                            "bound coefficients around the optimum")
    p_fit.add_argument("--samples", type=int, default=100)
    p_fit.add_argument("--sample-radius", type=float, default=0.9)
    p_fit.add_argument("--sample-seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StructureError as exc:
        print(f"structure error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except (CacheConsistencyError, DescentViolationError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ErrorBoundWitnessError as exc:
        print(f"error bound refuted: {exc}", file=sys.stderr)
        for idx, dist, gnorm in exc.witnesses:
            print(f"  sample {idx}: distance {dist!r}, residual {gnorm!r}",
                  file=sys.stderr)
        return EXIT_WITNESS


if __name__ == "__main__":
    sys.exit(main())
