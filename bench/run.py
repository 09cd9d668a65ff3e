"""pbcd benchmark: three workloads, end-to-end and per-layer metrics, checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lasso-solve --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

--workload   lasso-solve | logistic-compare | dual-diagnostics | all
--seed       drives sampler streams and error-bound sample points
--seconds    measured time: whole rounds run until their wall time sums to this
--trace 0    untraced rounds; prints the end-to-end metrics
--trace 1    alternates untraced and traced rounds; prints the per-layer
             metrics, span self times and the tracing overhead

pbcd is imported from src/ of the same checkout.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Outputs go to .bench_out/<workload>/ (spans.csv holds the traced spans).
"""

import os

# One thread everywhere, so two cores measure the program and not the
# scheduler; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PBCD_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS_FIRST = 4

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("reference_s", "s"), ("solve_s", "s"),
              ("block_updates_per_s", "1/s"), ("updates_per_dim.rcd", "count"),
              ("updates_per_dim.rcd-coordwise", "count"), ("updates_per_dim.full", "count"),
              ("diagnostics_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(names) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(cls, seed, seconds, trace):
    import numpy as np

    import calibration
    import tracing

    work = ROOT / ".bench_out" / cls.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = cls(seed, work)
    wl.prepare()
    tracer = tracing.Tracer() if trace else None
    setup_s = []
    calibration.reset()

    def timed_setup():
        # A set-up is one short call: it is scaled by the speed of the
        # calibration ticks right before and after it.
        before = calibration.tick()
        if tracer:
            tracer.phase = -1
            tracer.install()
        try:
            start = time.perf_counter()
            built = wl.setup()
            took = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
        near = 0.5 * (before + calibration.tick())
        setup_s.append(took * calibration.REF_S / near)
        return built

    # Set-ups before the first round and one more before every round, so
    # their median reflects the whole run; the rounds use the first one.
    state = timed_setup()
    for _ in range(SETUPS_FIRST - 1):
        timed_setup()
    wl.inputs(state)

    rounds, errors, measured = [], [], 0.0
    while measured < seconds or (trace and len(rounds) < 2):
        if rounds:
            timed_setup()
        traced = bool(trace) and len(rounds) % 2 == 1
        if traced:
            tracer.phase = len(rounds)
            tracer.install()
        try:
            ticks = len(calibration.samples)
            start = time.perf_counter()
            rnd = wl.run_round(state)
            rnd.wall_s = (time.perf_counter() - start
                          - sum(calibration.samples[ticks:]))
        finally:
            if traced:
                tracer.uninstall()
        measured += rnd.wall_s
        rnd.traced = traced
        rnd.sig = rnd.signature()
        if not rounds:
            errors += wl.check(rnd, state)
        elif rnd.sig != rounds[0].sig:
            errors.append(f"round {len(rounds)} outputs differ from round 0")
        rnd.out = None
        # Keep only each segment's fastest sample, so memory does not grow
        # with the number of rounds; round 0 keeps its segment list for the
        # categories and sample counts.
        rnd.layout = rnd.shape()
        rnd.mins = np.array([min(s) for _, s in rnd.segments])
        rnd.untimed = rnd.wall_s - sum(sum(s) for _, s in rnd.segments)
        if rounds:
            rnd.segments = None
        rounds.append(rnd)

    plain = [r for r in rounds if not r.traced]
    first = rounds[0]
    # Rounds whose segments line up with round 0's (all of them unless the
    # determinism check above failed).
    plain = [r for r in plain if r.layout == first.layout] or plain[:1]
    fastest = np.min([r.mins for r in plain], axis=0)
    # A segment's best time is the fastest of its n samples, which reads the
    # 1/(n+1) quantile of its times; it is scaled by the same quantile of
    # the calibration ticks (calibration.py).
    best = [(cat, len(samples),
             float(fastest[i]) * calibration.factor(len(samples) * len(plain)))
            for i, (cat, samples) in enumerate(first.segments)]

    def total(category):
        """Sum over the category's segments of each one's fastest sample."""
        return sum(b for cat, _, b in best if cat == category)

    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        metrics = tracer.metrics(len(traced_rounds))
        metrics["trace.overhead_s"] = (min(r.wall_s for r in traced_rounds)
                                       - min(r.wall_s for r in plain), "s")
        tracer.write(work / "spans.csv")
    else:
        # Best round: every segment at its fastest, plus the fastest
        # remainder of the round that no segment covers.
        untimed = min(r.untimed for r in plain) * calibration.factor(len(plain))
        solve_s = total("solve")
        values = {
            "wall_s": sum(count * b for _, count, b in best) + untimed,
            "setup_s": statistics.median(setup_s),
            "reference_s": total("reference"),
            "solve_s": solve_s,
            "block_updates_per_s": first.block_updates / solve_s,
            "diagnostics_s": total("diagnostics"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for mode, counts in first.updates.items():
            values[f"updates_per_dim.{mode}"] = statistics.fmean(counts)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"  calibration: {len(calibration.samples)} ticks; a one-per-round "
              f"segment is scaled by {calibration.factor(len(plain)):.4f}")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {cls.name}: seed {seed}, {len(rounds)} rounds "
          f"({sum(r.traced for r in rounds)} traced), {measured:.2f} s measured")
    print(f"  operations: attempted {attempted}, failed {failed}")
    for reason in dict.fromkeys(f for r in rounds for f in r.failures):
        print(f"  failed operation: {reason}")
    for err in errors:
        print(f"  CHECK FAILED: {err}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    src = ROOT / "src"
    if not (src / "pbcd" / "__init__.py").is_file():
        print(f"bench: no pbcd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pbcd
    if Path(pbcd.__file__).resolve().parent != (src / "pbcd").resolve():
        print(f"bench: imported pbcd from {pbcd.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
