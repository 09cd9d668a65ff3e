"""Command-line interface.

Subcommands: generate, solve, compare, bounds, gebp-fit.  Every experiment
field is settable by flag; --config loads an INI file first and flags
override it.  Exit codes: 0 success, 2 bad input, 3 inconsistent structure,
4 internal solver check failure, 6 error-bound counter-witness found,
1 unexpected failure.
"""

import argparse
import os
import sys

import numpy as np

from .analysis import (RateBundle, error_bound_chain, fit_error_bound_constants,
                       iters_to_confidence_error_bound,
                       iters_to_confidence_sublinear,
                       linear_rate_strongly_convex, sublinear_gap_bound)
from .errors import (CacheConsistencyError, DescentViolationError,
                     ErrorBoundWitnessError, InputError, StructureError)
from .experiment import (ExperimentConfig, _parse_field, build_problem,
                         load_config, reference_and_start, run_cell,
                         run_experiment, write_csv, write_trace)
from .matrixio import save_matrix, save_vector

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INPUT = 2
EXIT_STRUCTURE = 3
EXIT_INTERNAL = 4
EXIT_WITNESS = 6


def _add_problem_flags(parser):
    parser.add_argument("--config", help="INI config file (flags override it)")
    parser.add_argument("--source", choices=["generate-lasso",
                                             "generate-logistic",
                                             "generate-dual", "load-matrix"])
    parser.add_argument("--m", type=int, help="rows / constraint count")
    parser.add_argument("--n", type=int, help="variable dimension")
    parser.add_argument("--num-samples", type=int, dest="num_samples")
    parser.add_argument("--num-parts", type=int, dest="num_parts")
    parser.add_argument("--sparsity", type=float)
    parser.add_argument("--block-size", type=int, dest="block_size")
    parser.add_argument("--lam", type=float, help="l1 weight")
    parser.add_argument("--box-lb", type=float, dest="box_lb")
    parser.add_argument("--box-ub", type=float, dest="box_ub")
    parser.add_argument("--noise", type=float)
    parser.add_argument("--problem-seed", type=int, dest="problem_seed")
    parser.add_argument("--matrix", dest="matrix_path")
    parser.add_argument("--rhs", dest="rhs_path")


def _add_solve_flags(parser):
    parser.add_argument("--seeds", help="comma-separated run seeds")
    parser.add_argument("--modes", help="comma-separated solver modes")
    parser.add_argument("--batch-sizes", dest="batch_sizes",
                        help="comma-separated blocks-per-iteration values")
    parser.add_argument("--scheme", choices=["uniform-subset",
                                             "shuffle-partition"])
    parser.add_argument("--max-iters", type=int, dest="max_iters")
    parser.add_argument("--gap-rtol", type=float, dest="gap_rtol")
    parser.add_argument("--ref-tol", type=float, dest="ref_tol")
    parser.add_argument("--ref-max-iters", type=int, dest="ref_max_iters")
    parser.add_argument("--outdir")
    parser.add_argument("--trace-stride", type=int, dest="trace_stride")
    parser.add_argument("--no-traces", action="store_true")
    parser.add_argument("--no-mapping-norm", action="store_true",
                        help="skip the residual-mapping column in traces")


def _experiment_config(args):
    overrides = {}
    for name in ("source", "m", "n", "num_samples", "num_parts", "sparsity",
                 "block_size", "lam", "box_lb", "box_ub", "noise",
                 "problem_seed", "matrix_path", "rhs_path", "scheme",
                 "max_iters", "gap_rtol", "ref_tol", "ref_max_iters",
                 "outdir", "trace_stride"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    for name in ("seeds", "batch_sizes", "modes"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = _parse_field(name, v, "--" + name.replace("_", "-"))
    if getattr(args, "no_traces", False):
        overrides["write_traces"] = False
    if getattr(args, "no_mapping_norm", False):
        overrides["trace_mapping_norm"] = False
    if args.config:
        return load_config(args.config, overrides)
    return ExperimentConfig(**overrides)


def cmd_generate(args):
    cfg = _experiment_config(args)
    gen = build_problem(cfg)
    os.makedirs(args.outdir or cfg.outdir, exist_ok=True)
    outdir = args.outdir or cfg.outdir
    mat_path = os.path.join(outdir, "matrix.mtx")
    rhs_path = os.path.join(outdir, "rhs.vec")
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
    bundle = RateBundle(num_blocks=args.num_blocks, batch_size=args.batch_size,
                        radius=args.radius, initial_gap=args.initial_gap,
                        strong_convexity=args.strong_convexity,
                        eb_const=args.eb_const, eb_quad=args.eb_quad)
    rows = []
    for k in range(0, args.k_max + 1, args.k_stride):
        rows.append((k, sublinear_gap_bound(bundle, k)))
    print(f"sublinear gap bound at k={args.k_max}: {rows[-1][1]!r}")
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
    cfg = _experiment_config(args)
    gen = build_problem(cfg)
    problem = gen.problem
    base = reference_and_start(problem, cfg)
    xstar = base.xstar
    if not base.converged:
        print("warning: reference solve did not reach tolerance",
              file=sys.stderr)
    rng = np.random.Generator(np.random.Philox(args.sample_seed))
    points = []
    for _ in range(args.samples):
        raw = rng.normal(size=problem.n)
        scale = float(rng.uniform(0.05, args.sample_radius))
        points.append(problem.project_domain(
            xstar + raw * (scale / problem.norm_w(raw))))
    fit = fit_error_bound_constants(problem, xstar, points)
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

    p_gen = sub.add_parser("generate", help="generate a problem and save "
                                            "matrix/vector files")
    _add_problem_flags(p_gen)
    p_gen.add_argument("--outdir")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve one configuration and "
                                           "write its trace")
    _add_problem_flags(p_solve)
    _add_solve_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run the mode x batch x seed grid "
                                           "and write the summary table")
    _add_problem_flags(p_cmp)
    _add_solve_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_b = sub.add_parser("bounds", help="evaluate the theoretical rate bounds")
    p_b.add_argument("--num-blocks", type=int, required=True, dest="num_blocks")
    p_b.add_argument("--batch-size", type=int, required=True, dest="batch_size")
    p_b.add_argument("--radius", type=float, required=True)
    p_b.add_argument("--initial-gap", type=float, required=True,
                     dest="initial_gap")
    p_b.add_argument("--strong-convexity", type=float, dest="strong_convexity")
    p_b.add_argument("--eb-const", type=float, dest="eb_const")
    p_b.add_argument("--eb-quad", type=float, dest="eb_quad")
    p_b.add_argument("--eps", type=float)
    p_b.add_argument("--rho", type=float)
    p_b.add_argument("--k-max", type=int, default=1000, dest="k_max")
    p_b.add_argument("--k-stride", type=int, default=10, dest="k_stride")
    p_b.add_argument("--out")
    p_b.set_defaults(func=cmd_bounds)

    p_fit = sub.add_parser("gebp-fit", help="fit generalized error bound "
                                            "coefficients around the optimum")
    _add_problem_flags(p_fit)
    _add_solve_flags(p_fit)
    p_fit.add_argument("--samples", type=int, default=100)
    p_fit.add_argument("--sample-radius", type=float, default=0.9,
                       dest="sample_radius")
    p_fit.add_argument("--sample-seed", type=int, default=0, dest="sample_seed")
    p_fit.set_defaults(func=cmd_gebp_fit)
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
