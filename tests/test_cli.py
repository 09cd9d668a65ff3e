import os
import re

import numpy as np
import pytest

from pbcd.cli import main


def test_generate_solve_round_trip(tmp_path, capsys):
    outdir = str(tmp_path / "gen")
    rc = main(["generate", "--source", "generate-lasso", "--m", "10", "--n",
               "8", "--sparsity", "0.4", "--lam", "0.3", "--problem-seed",
               "5", "--outdir", outdir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_blocks_per_component" in out
    assert os.path.exists(os.path.join(outdir, "matrix.mtx"))
    rc = main(["solve", "--source", "load-matrix",
               "--matrix", os.path.join(outdir, "matrix.mtx"),
               "--rhs", os.path.join(outdir, "rhs.vec"),
               "--lam", "0.3", "--modes", "rcd", "--batch-sizes", "2",
               "--seeds", "0", "--gap-rtol", "1e-4",
               "--outdir", str(tmp_path / "solve")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert os.path.exists(os.path.join(str(tmp_path / "solve"),
                                       "trace_rcd_b2_s0.csv"))


def test_compare_writes_summary(tmp_path, capsys):
    outdir = str(tmp_path / "cmp")
    rc = main(["compare", "--source", "generate-lasso", "--m", "12", "--n",
               "10", "--sparsity", "0.3", "--lam", "0.4", "--problem-seed",
               "1", "--modes", "rcd,rcd-coordwise", "--batch-sizes", "2",
               "--seeds", "0,1", "--gap-rtol", "1e-3", "--outdir", outdir,
               "--trace-stride", "10"])
    assert rc == 0
    assert os.path.exists(os.path.join(outdir, "summary.csv"))
    out = capsys.readouterr().out
    assert "updates_per_dim_rcd" in out


def test_bounds_subcommand(tmp_path, capsys):
    out_csv = str(tmp_path / "curve.csv")
    rc = main(["bounds", "--num-blocks", "10", "--batch-size", "2",
               "--radius", "1.0", "--initial-gap", "1.0",
               "--strong-convexity", "0.5", "--eb-const", "2.0",
               "--eb-quad", "0.0", "--eps", "0.01", "--rho", "0.1",
               "--k-max", "100", "--out", out_csv])
    assert rc == 0
    out = capsys.readouterr().out
    assert "strongly convex per-iteration factor: 0.9" in out
    assert "theta=" in out
    assert "2314 (sublinear)" in out
    assert os.path.exists(out_csv)


def test_gebp_fit_subcommand(capsys):
    rc = main(["gebp-fit", "--source", "generate-lasso", "--m", "12", "--n",
               "8", "--sparsity", "0.5", "--lam", "0.5", "--problem-seed",
               "4", "--samples", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted error-bound coefficients" in out
    assert "max violation" in out


def test_input_error_exit_code(capsys):
    rc = main(["solve", "--source", "generate-lasso", "--m", "5", "--n", "10",
               "--sparsity", "0.01"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text("""
[problem]
source = generate-lasso
m = 10
n = 8
sparsity = 0.4
lam = 0.3
problem_seed = 2

[solve]
seeds = 0
modes = rcd
batch_sizes = 2
gap_rtol = 1e-3
""")
    outdir = str(tmp_path / "run")
    rc = main(["solve", "--config", str(path), "--outdir", outdir,
               "--batch-sizes", "4"])
    assert rc == 0
    assert os.path.exists(os.path.join(outdir, "trace_rcd_b4_s0.csv"))


def test_unknown_bool_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text("[output]\nwrite_traces = maybe\n")
    rc = main(["solve", "--config", str(path), "--outdir", str(tmp_path / "o")])
    assert rc == 2
    assert "write_traces" in capsys.readouterr().err


@pytest.mark.parametrize("argv, ini, key", [
    (["compare", "--seeds", "1.5"], None, "seeds"),
    (["compare", "--batch-sizes", ","], None, "batch_sizes"),
    (["compare", "--seeds", ","], None, "seeds"),
    (["compare", "--modes", " , "], None, "modes"),
    (["solve", "--seeds", ","], None, "seeds"),
    (["solve"], "[solve]\nseeds =\n", "seeds"),
], ids=["compare-float-seed", "compare-empty-batch-sizes", "compare-empty-seeds",
        "compare-empty-modes", "solve-empty-seeds", "config-empty-seeds"])
def test_bad_list_value_exits_2(tmp_path, capsys, argv, ini, key):
    argv = argv + ["--m", "6", "--n", "5", "--sparsity", "0.5",
                   "--outdir", str(tmp_path / "o")]
    if ini is not None:
        path = tmp_path / "exp.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_optimal_start_converges_in_one_iteration(tmp_path, capsys):
    # above lam_max the start x0 = 0 is optimal; the reference and the
    # solver must agree on F there exactly, or the gap tolerance
    # gap_rtol * (F(x0) - F*) is never met
    from pbcd.experiment import ExperimentConfig, build_problem, run_experiment
    flags = dict(source="generate-logistic", num_samples=200, n=60,
                 sparsity=0.05, block_size=3, problem_seed=1)
    free = build_problem(ExperimentConfig(lam=0.0, **flags)).problem
    lam = 1.5 * float(np.max(np.abs(free.smooth_gradient(np.zeros(free.n)))))
    result = run_experiment(ExperimentConfig(
        lam=lam, modes=("rcd",), batch_sizes=(2,), seeds=(0,), max_iters=50,
        outdir=str(tmp_path / "cmp"), **flags))
    assert result.initial_gap == 0.0
    cell, = result.cells
    assert cell.converged and cell.iterations <= 1
    rc = main(["solve", "--source", "generate-logistic", "--num-samples", "200",
               "--n", "60", "--sparsity", "0.05", "--block-size", "3",
               "--problem-seed", "1", "--lam", repr(lam), "--modes", "rcd",
               "--batch-sizes", "2", "--seeds", "0", "--max-iters", "50",
               "--outdir", str(tmp_path / "solve")])
    assert rc == 0
    out = capsys.readouterr().out
    iters = int(re.search(r"converged:gap after (\d+) iterations", out).group(1))
    assert iters <= 1
