import os

import pytest

from pbcd.errors import InputError
from pbcd.experiment import (ExperimentConfig, build_problem, load_config,
                             reference_solution, run_experiment)


def small_config(tmp_path, **kw):
    base = dict(source="generate-lasso", m=14, n=12, sparsity=0.3, lam=0.4,
                problem_seed=3, seeds=(0, 1), modes=("rcd", "rcd-coordwise"),
                batch_sizes=(2, 12), gap_rtol=1e-3, max_iters=40000,
                outdir=str(tmp_path / "out"), trace_stride=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_reference_solution_reaches_tolerance():
    gen = build_problem(ExperimentConfig(source="generate-lasso", m=10, n=8,
                                         sparsity=0.4, lam=0.3, problem_seed=1))
    x, fstar, ok = reference_solution(gen.problem, tol=1e-10)
    assert ok
    assert gen.problem.prox_grad_mapping(x)[1] <= 1e-10
    assert fstar == pytest.approx(gen.problem.objective(x), rel=1e-12)


def test_run_experiment_outputs_and_convergence(tmp_path):
    cfg = small_config(tmp_path)
    result = run_experiment(cfg)
    assert result.ref_converged
    assert len(result.cells) == 2 * 2 * 2
    assert all(c.converged for c in result.cells)
    for c in result.cells:
        assert c.final_gap <= cfg.gap_rtol * result.initial_gap + 1e-12
    for path in result.files:
        assert os.path.exists(path)
    names = {os.path.basename(p) for p in result.files}
    assert "summary.csv" in names
    assert "bounds_b2.csv" in names
    assert "trace_rcd_b2_s0.csv" in names


def test_summary_contains_structure_measures(tmp_path):
    cfg = small_config(tmp_path)
    result = run_experiment(cfg)
    gen = build_problem(cfg)
    for row in result.summary_rows:
        assert row["max_components_per_block"] == gen.problem.max_components_per_block
        assert row["max_blocks_per_component"] == gen.problem.max_blocks_per_component
        assert row["fstar"] == pytest.approx(result.fstar, rel=1e-12)


def test_both_modes_reach_same_optimum(tmp_path):
    cfg = small_config(tmp_path, gap_rtol=1e-8)
    result = run_experiment(cfg)
    for c in result.cells:
        assert c.converged
        rel = abs(c.final_gap) / max(1.0, abs(result.fstar))
        assert rel <= 1e-6


def test_trace_csv_deterministic_data_columns(tmp_path):
    cfg_a = small_config(tmp_path / "a", seeds=(0,), batch_sizes=(3,),
                         modes=("rcd",))
    cfg_b = small_config(tmp_path / "b", seeds=(0,), batch_sizes=(3,),
                         modes=("rcd",))
    ra = run_experiment(cfg_a)
    rb = run_experiment(cfg_b)

    def read(path):
        with open(path) as handle:
            return handle.read()

    def data_columns(path):
        lines = read(path).strip().splitlines()
        # drop the wall-time column (the single nondeterministic field)
        return [",".join(line.split(",")[:-1]) for line in lines]

    for pa, pb in zip(sorted(ra.files), sorted(rb.files)):
        assert os.path.basename(pa) == os.path.basename(pb)
        if os.path.basename(pa).startswith(("summary", "bounds")):
            assert read(pa) == read(pb)
        else:
            assert data_columns(pa) == data_columns(pb)


def test_full_batch_cell_is_deterministic_full_pass(tmp_path):
    cfg = small_config(tmp_path, modes=("rcd",), batch_sizes=(12,),
                       seeds=(0, 1))
    result = run_experiment(cfg)
    a, b = result.cells
    assert a.iterations == b.iterations
    assert a.trace.objectives == b.trace.objectives


def test_invalid_configs_rejected(tmp_path):
    with pytest.raises(InputError):
        run_experiment(small_config(tmp_path, modes=("bogus",)))
    with pytest.raises(InputError):
        run_experiment(small_config(tmp_path, batch_sizes=(99,)))
    with pytest.raises(InputError):
        build_problem(ExperimentConfig(source="nope"))
    with pytest.raises(InputError):
        build_problem(ExperimentConfig(source="load-matrix"))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[problem]
source = generate-lasso
m = 9
n = 7
sparsity = 0.5
lam = 0.25
problem_seed = 2

[solve]
seeds = 3,4
modes = rcd
batch_sizes = 1,7
gap_rtol = 1e-3

[output]
outdir = somewhere
trace_stride = 2
write_traces = false
""")
    cfg = load_config(path)
    assert cfg.m == 9 and cfg.n == 7
    assert cfg.seeds == (3, 4)
    assert cfg.modes == ("rcd",)
    assert cfg.batch_sizes == (1, 7)
    assert cfg.gap_rtol == 1e-3
    assert cfg.outdir == "somewhere"
    assert cfg.write_traces is False
    # flag overrides beat the file
    cfg2 = load_config(path, overrides={"m": 20, "outdir": None})
    assert cfg2.m == 20 and cfg2.outdir == "somewhere"


def test_config_file_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nbogus = 1\n")
    with pytest.raises(InputError, match="unknown key"):
        load_config(path)
    path2 = tmp_path / "bad2.ini"
    path2.write_text("[nope]\nm = 1\n")
    with pytest.raises(InputError, match="unknown config section"):
        load_config(path2)
    with pytest.raises(InputError, match="cannot read"):
        load_config(tmp_path / "missing.ini")
    path3 = tmp_path / "bad3.ini"
    path3.write_text("[solve]\ncell_workers = 2\n")
    with pytest.raises(InputError, match="unknown key"):
        load_config(path3)


def test_reference_path_matches_per_block_full_mode():
    from pbcd.solver import SolverConfig as SC
    from pbcd.solver import run as solver_run
    import numpy as np
    gen = build_problem(ExperimentConfig(source="generate-lasso", m=12, n=10,
                                         sparsity=0.4, lam=0.3, problem_seed=6))
    problem = gen.problem
    x = problem.project_domain(np.zeros(problem.n))
    for _ in range(50):
        x = problem.prox(x - problem.smooth_gradient(x) / problem.coord_weights)
    res = solver_run(problem, SC(mode="full", max_iters=50), np.zeros(problem.n))
    assert np.allclose(res.x, x, rtol=0, atol=1e-12)


def test_trace_mapping_norm_column_populated(tmp_path):
    import numpy as np
    cfg = small_config(tmp_path, seeds=(0,), batch_sizes=(3,), modes=("rcd",))
    result = run_experiment(cfg)
    trace = result.cells[0].trace
    assert np.all(np.isfinite(trace.mapping_norms))
    assert trace.mapping_norms[0] > 0.0


def test_updates_per_dim_counts_coordinates_at_block_size_3(tmp_path):
    cfg = ExperimentConfig(source="generate-logistic", num_samples=40, n=24,
                           sparsity=0.2, block_size=3, lam=0.02,
                           problem_seed=2, modes=("rcd", "rcd-coordwise"),
                           batch_sizes=(2,), seeds=(0, 1), gap_rtol=1e-3,
                           scheme="shuffle-partition",
                           outdir=str(tmp_path / "out"))
    result = run_experiment(cfg)
    nb = result.problem.num_blocks
    assert nb == 8
    row, = result.summary_rows
    for mode in cfg.modes:
        mean = sum(c.coordinate_updates for c in result.cells
                   if c.mode == mode) / len(cfg.seeds)
        assert row[f"updates_per_dim_{mode.replace('-', '_')}"] == mean / nb
    cell = result.cells[0]
    with open(result.files[0]) as handle:
        last = handle.read().strip().splitlines()[-1].split(",")
    assert int(last[0]) == cell.iterations
    assert float(last[1]) == cell.iterations * 2 / nb
