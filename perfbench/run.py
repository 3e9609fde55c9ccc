"""Run one gaspower benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cosim-gaslib9 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the workload's simulations run untraced and the
last line of output is a JSON object with the end-to-end metrics. With
``--trace 1`` one seeded simulation is repeated, untraced and traced, and the
JSON carries the per-layer metrics. ``--workload all`` runs every workload
in turn in this process, each ending with its own JSON line. See
perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools to one thread before NumPy is imported.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARIABLES:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order. Times are
# scaled to the reference speed of speed.py; the unscaled wall times and the
# speed probe's kernel time are printed but not listed.
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("step_ms_p50", "ms"),
              ("step_ms_p95", "ms"), ("peak_rss_mb", "MB"))
PRINTED_ONLY = (("run_wall_s", "s"), ("setup_wall_s", "s"), ("probe_ms", "ms"))
# Set-up-only probes per run, so that set-up time is a median of several.
SETUP_PROBES = {"cosim-gaslib9": 2}
DEFAULT_SETUP_PROBES = 60
MIN_TRACED = 2
MIN_RUN_STEPS = 200     # steps per untraced run, so that p95 has 10 beyond it


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARIABLES},
        "machine": platform.machine(),
    }


def simulate(workload, seed, k, timer, workdir, setup_only=False, tracer=None):
    """Generate the inputs of simulation ``k`` of ``seed`` and run them."""
    from gaspower.errors import GasPowerError
    from speed import EDGE_PROBES
    from workloads import SetupDone, SimRecord

    rng = np.random.default_rng([seed, k])
    speed = timer.speed
    timer.reset(setup_only)
    speed.probe(EDGE_PROBES)
    start = time.perf_counter()

    def setup_record(**fields):
        if timer.first_call is None:
            return SimRecord(setup_s=None, **fields)
        wall = timer.first_call - start
        return SimRecord(setup_s=wall * speed.factor(start, timer.first_call),
                         wall_setup_s=wall, **fields)

    try:
        inputs = workload.generate(rng, workdir)
        if tracer is not None:
            tracer.active = True
        try:
            scenario, run = workload.run(inputs, workdir)
            if tracer is not None:
                tracer.wrap_law(scenario.law)
            result = run()
        finally:
            if tracer is not None:
                tracer.active = False
    except SetupDone:
        speed.probe(EDGE_PROBES)
        return setup_record(ok=True)
    except GasPowerError as exc:
        speed.probe(EDGE_PROBES)
        return setup_record(reason=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    probes_in_run = speed.spent - timer.probe_spent_at_first
    speed.probe(EDGE_PROBES)
    record = setup_record(t_final=result.sim.t)
    # Steps are scaled one by one; the rest of the stepping phase (driver
    # work between steps, output) by the speed over the whole phase.
    record.wall_run_s = end - timer.first_call - probes_in_run
    record.step_s = [(e - s) * speed.factor(s, e) for s, e in timer.spans]
    glue = record.wall_run_s - sum(e - s for s, e in timer.spans)
    record.run_s = sum(record.step_s) + glue * speed.factor(timer.first_call, end)
    if len(record.step_s) != workload.n_steps:
        record.reason = f"{len(record.step_s)} steps, expected {workload.n_steps}"
        return record
    try:
        record.ok, record.reason, record.l1_err = workload.gate(result, inputs)
    except GasPowerError as exc:
        record.reason = f"gate: {type(exc).__name__}: {exc}"
    return record


def end_to_end(records, speed) -> tuple[dict, dict]:
    """(metrics, sample counts) over the simulations of one run."""
    done = [r for r in records if r.run_s is not None]
    steps_ms = [1e3 * s for r in done for s in r.step_s]
    setups = [r for r in records if r.setup_s is not None]
    values = {}
    counts = {}
    if done:
        values["run_s"] = statistics.median(r.run_s for r in done)
        values["run_wall_s"] = statistics.median(r.wall_run_s for r in done)
        values["step_ms_p50"] = statistics.median(steps_ms)
        values["step_ms_p95"] = statistics.quantiles(steps_ms, n=20)[18]
        counts.update(run_s=len(done), run_wall_s=len(done), step_ms_p50=len(steps_ms),
                      step_ms_p95=len(steps_ms))
    if setups:
        values["setup_s"] = statistics.median(r.setup_s for r in setups)
        values["setup_wall_s"] = statistics.median(r.wall_setup_s for r in setups)
        counts.update(setup_s=len(setups), setup_wall_s=len(setups))
    values["probe_ms"] = 1e3 * speed.median_s()
    counts["probe_ms"] = len(speed.durations)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    return values, counts


def overruns(start, seconds, last) -> bool:
    """True when another simulation like ``last`` would end past the budget."""
    took = (last.wall_setup_s or 0.0) + (last.wall_run_s or 0.0)
    return time.perf_counter() - start + took > seconds


def run_untraced(workload, seed, seconds, timer, workdir):
    records = []
    start = time.perf_counter()
    timer.install()
    try:
        for k in range(SETUP_PROBES.get(workload.name, DEFAULT_SETUP_PROBES)):
            records.append(simulate(workload, seed, k, timer, workdir, setup_only=True))
        steps = 0
        while not overruns(start, seconds, records[-1]) or (
                steps < MIN_RUN_STEPS and time.perf_counter() - start < 2 * seconds):
            records.append(simulate(workload, seed, len(records), timer, workdir))
            steps += len(records[-1].step_s)
    finally:
        timer.uninstall()
    values, counts = end_to_end(records, timer.speed)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END + PRINTED_ONLY if name in values}
    return records, metrics, counts, []


def run_traced(workload, seed, seconds, timer, workdir):
    """Alternate untraced and traced runs of simulation 0 of ``seed``."""
    from layers import METRICS, Tracer, count_metrics, median_metrics

    tracer = Tracer()
    plain, traced, layer_samples = [], [], []
    start = time.perf_counter()
    while (not plain or len(traced) < MIN_TRACED
           or not overruns(start, seconds, traced[-1])):
        # Untraced, traced, traced, then alternate.
        if plain and (len(traced) < MIN_TRACED or len(plain) > len(traced)):
            tracer.install()
            tracer.reset()
            timer.install()
            try:
                traced.append(simulate(workload, seed, 0, timer, workdir, tracer=tracer))
            finally:
                timer.uninstall()
                tracer.uninstall()
            layer_samples.append(tracer.layer_metrics())
        else:
            timer.install()
            try:
                plain.append(simulate(workload, seed, 0, timer, workdir))
            finally:
                timer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    problems = []
    reference = count_metrics(layer_samples[0])
    for n, sample in enumerate(layer_samples[1:], start=2):
        if count_metrics(sample) != reference:
            problems.append(f"determinism: counts of traced run {n} differ from run 1")
    outcomes = {(len(r.step_s), r.l1_err, r.t_final) for r in plain + traced}
    if len(outcomes) != 1:
        problems.append(f"determinism: step count, l1_err or final time differ: {outcomes}")

    values = median_metrics(layer_samples)
    done_plain = [r.run_s for r in plain if r.run_s is not None]
    done_traced = [r.run_s for r in traced if r.run_s is not None]
    metrics = {name: {"value": values[name], "unit": METRICS[name][0]}
               for name in METRICS if name in values}
    if done_plain and done_traced:
        overhead = statistics.median(done_traced) - statistics.median(done_plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    absent = [name for name in METRICS if name not in values]
    if tracer.missing:
        print(f"missing hook points: {', '.join(tracer.missing)}")
    if absent:
        print(f"absent per-layer metrics: {', '.join(absent)}")
    counts = {name: len(layer_samples) for name in metrics}
    return plain + traced, metrics, counts, problems


def run_workload(workload, args, facts) -> None:
    """Run one workload and print its metric lines and its JSON line."""
    from speed import SpeedProbe
    from workloads import StepTimer

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    timer = StepTimer(workload.stepper, SpeedProbe(workload.probe_size))
    runner = run_traced if args.trace else run_untraced
    try:
        records, metrics, counts, problems = runner(
            workload, args.seed, args.seconds, timer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if not r.ok]
    for r in failed:
        problems.append(f"failed run: {r.reason}")
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']:9s} n={counts[name]}")
    l1 = [r.l1_err for r in records if r.l1_err is not None]
    if l1:
        print(f"  {'l1_err':42s} {statistics.median(l1):14.6g} {'1':9s} n={len(l1)}")
    print(f"  {'fail_frac':42s} {len(failed) / len(records):14.6g} {'1':9s} "
          f"n={len(records)}")
    for problem in problems:
        print(f"problem: {problem}")

    printed_only = {name for name, _ in PRINTED_ONLY}
    summary = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: v for k, v in metrics.items() if k not in printed_only},
    }
    report = dict(summary, workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=facts,
                  problems=problems, samples=counts, printed=metrics)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaspower" / "__init__.py").is_file():
        print(f"error: no gaspower sources under {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose 'all' or one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # the box scheme warns below its inverse CFL bound
    facts = machine_facts()
    for name in names:
        run_workload(WORKLOADS[name], args, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
