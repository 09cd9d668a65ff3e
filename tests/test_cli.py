import argparse
import dataclasses
import os
import re

import numpy as np
import pytest

from pbcd.cli import _experiment_config, build_parser, main
from pbcd.experiment import ExperimentConfig, load_config


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


@pytest.mark.parametrize("argv, ini, key", [
    (["solve", "--trace-stride", "0"], None, "trace_stride"),
    (["compare", "--trace-stride", "0"], None, "trace_stride"),
    (["solve"], "[output]\ntrace_stride = 0\n", "trace_stride"),
    (["solve", "--gap-rtol", "-1"], None, "gap_rtol"),
    (["compare", "--gap-rtol", "0"], None, "gap_rtol"),
    (["solve", "--gap-rtol", "nan"], None, "gap_rtol"),
    (["solve", "--ref-tol", "-1"], None, "ref_tol"),
    (["gebp-fit", "--ref-tol", "inf"], None, "ref_tol"),
    (["solve", "--max-iters", "-5"], None, "max_iters"),
    (["compare", "--ref-max-iters", "0"], None, "ref_max_iters"),
    (["solve"], "[solve]\ngap_rtol = -1\n", "gap_rtol"),
    (["compare"], "[solve]\nref_tol = -1\n", "ref_tol"),
    (["solve"], "[solve]\nmax_iters = -5\n", "max_iters"),
    (["solve"], "[solve]\nref_max_iters = 0\n", "ref_max_iters"),
], ids=["solve-trace-stride", "compare-trace-stride", "config-trace-stride",
        "solve-negative-gap-rtol", "compare-zero-gap-rtol", "solve-nan-gap-rtol",
        "solve-negative-ref-tol", "gebp-fit-infinite-ref-tol",
        "solve-negative-max-iters", "compare-zero-ref-max-iters",
        "config-gap-rtol", "config-ref-tol", "config-max-iters",
        "config-ref-max-iters"])
def test_bad_solve_limit_exits_2(tmp_path, capsys, argv, ini, key):
    argv = argv + ["--m", "6", "--n", "5", "--sparsity", "0.5",
                   "--outdir", str(tmp_path / "o")]
    if ini is not None:
        path = tmp_path / "exp.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert f"input error: {key} must be" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--k-stride", "0"], "--k-stride"),
    (["bounds", "--k-max", "-1"], "--k-max"),
    (["gebp-fit", "--sample-radius", "0.01"], "--sample-radius"),
    (["gebp-fit", "--sample-radius", "nan"], "--sample-radius"),
    (["gebp-fit", "--samples", "0"], "--samples"),
], ids=["bounds-zero-stride", "bounds-negative-k-max", "gebp-fit-small-radius",
        "gebp-fit-nan-radius", "gebp-fit-no-samples"])
def test_bad_bounds_and_fit_flags_exit_2(capsys, argv, flag):
    if argv[0] == "bounds":
        argv = argv + ["--num-blocks", "10", "--batch-size", "2", "--radius",
                       "1.0", "--initial-gap", "1.0"]
    else:
        argv = argv + ["--m", "6", "--n", "5", "--sparsity", "0.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and flag in err


def test_bounds_reports_the_bound_at_k_max(capsys):
    # the curve's last k is 90 at stride 30; the reported bound is at 100
    assert main(["bounds", "--num-blocks", "10", "--batch-size", "2", "--radius",
                 "1.0", "--initial-gap", "1.0", "--k-max", "100",
                 "--k-stride", "30"]) == 0
    assert "at k=100: 0.07142857142857142\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, ini, key", [
    (["solve", "--modes", "rcd,bogus"], None, "modes"),
    (["solve", "--scheme", "bogus"], None, "scheme"),
    (["compare", "--source", "bogus"], None, "source"),
    (["solve"], "[solve]\nmodes = bogus\n", "modes"),
    (["solve"], "[solve]\nscheme = bogus\n", "scheme"),
    (["gebp-fit"], "[problem]\nsource = bogus\n", "source"),
    (["solve", "--outdir", ""], None, "outdir"),
], ids=["solve-bad-mode", "solve-bad-scheme", "compare-bad-source",
        "config-bad-mode", "config-bad-scheme", "config-bad-source",
        "solve-empty-outdir"])
def test_bad_choice_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                            argv, ini, key):
    import pbcd.experiment
    monkeypatch.setattr(pbcd.experiment, "reference_solution", None)
    argv = argv + ["--m", "6", "--n", "5", "--sparsity", "0.5"]
    if "--outdir" not in argv:
        argv += ["--outdir", str(tmp_path / "o")]
    if ini is not None:
        path = tmp_path / "exp.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert f"bad value for {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# one non-default value per ExperimentConfig field, as its INI/flag text
SCHEMA_SAMPLES = {
    "source": "generate-dual", "m": "7", "n": "9", "num_samples": "11",
    "num_parts": "3", "sparsity": "0.25", "block_size": "2", "lam": "0.5",
    "box_lb": "-2.5", "box_ub": "1.5", "noise": "0.125", "problem_seed": "4",
    "matrix_path": "a.mtx", "rhs_path": "b.vec", "seeds": "3, 5",
    "modes": "full,rcd", "batch_sizes": "2,4", "scheme": "shuffle-partition",
    "max_iters": "17", "gap_rtol": "0.001", "ref_tol": "1e-08",
    "ref_max_iters": "19", "trace_stride": "3", "outdir": "elsewhere",
    "write_traces": "false", "trace_mapping_norm": "no",
}


def _options(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.option_strings}


@pytest.mark.parametrize("command", ["solve", "compare", "gebp-fit"])
def test_every_config_field_reads_the_same_from_ini_and_flag(tmp_path, command):
    specs = dataclasses.fields(ExperimentConfig)
    assert set(SCHEMA_SAMPLES) == {spec.name for spec in specs}
    options = _options(command)
    default = ExperimentConfig()
    for spec in specs:
        text = SCHEMA_SAMPLES[spec.name]
        path = tmp_path / f"{spec.name}.ini"
        path.write_text(f"[{spec.metadata['section']}]\n{spec.name} = {text}\n")
        from_ini = load_config(path)
        action = options[spec.name]
        flag = action.option_strings[0]
        argv = [command, flag] if action.nargs == 0 else [command, flag, text]
        from_flag = _experiment_config(build_parser().parse_args(argv))
        assert from_ini == from_flag
        assert getattr(from_ini, spec.name) != getattr(default, spec.name)
        assert dataclasses.replace(from_ini, **{spec.name: getattr(
            default, spec.name)}) == default


def test_generate_takes_problem_flags_and_outdir():
    problem = {spec.name for spec in dataclasses.fields(ExperimentConfig)
               if spec.metadata["section"] == "problem"}
    assert set(_options("generate")) == problem | {"outdir", "config", "help"}
    assert set(_options("solve")) == {spec.name for spec in dataclasses.fields(
        ExperimentConfig)} | {"config", "help"}
