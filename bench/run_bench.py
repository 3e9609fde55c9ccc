"""Measure this checkout end to end and by layer, and write BENCH_<n>.json.

    python3 bench/run_bench.py <n>

``<n>`` is the number of the change being measured; the file is written at
the root of the checkout that holds this script. Every measurement runs in a
fresh child process of the current interpreter, with ``src/`` on the path:

- ``perfbench/run.py --workload all --trace 0`` once per seed of ``SEEDS``,
  and each workload alone in ``REPEATS`` processes, for its own peak RSS and
  minor faults;
- ``perfbench/run.py --workload all --trace 1`` once, for the per-layer
  metrics;
- ``import gaspower, gaspower.cli``, the three bundled CLI runs and
  acceptance criteria 04, 07 and 09 (``pytest -k``), ``REPEATS`` processes
  each.

The file holds the machine facts, the median and quartiles of every
end-to-end metric per workload (unscaled wall times first), the wall time,
``ru_maxrss`` and ``ru_minflt`` of every child, and the traced run's
per-layer metrics. The script reads the perfbench results from
``.perfbench-out/`` and writes CLI outputs to a temporary directory that it
deletes. A child that exits with an error stops the script.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_OUT = ROOT / ".perfbench-out"
SCENARIOS = ROOT / "src" / "gaspower" / "scenarios"

SEEDS = (1, 2, 3, 4, 5)
SECONDS = 8          # perfbench budget per workload
TRACE_SEED = 1
TRACE_SECONDS = 2
REPEATS = 3
WORKLOADS = ("cosim-gaslib9", "ibox-fine", "cweno-junction-gamma",
             "cweno-junction-sumgamma")
WALL_FIRST = ("run_wall_s", "setup_wall_s")
CLI_RUNS = {
    "simulate-gas validation.scn": ("simulate-gas", "validation.scn"),
    "simulate-gas pressure_laws.scn": ("simulate-gas", "pressure_laws.scn"),
    "cosim gaslib9.scn": ("cosim", "gaslib9.scn"),
}
CRITERIA = ("04", "07", "09")


def run_child(args, label):
    """Run ``python args`` at the root; its wall time, rusage and output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        # wait4 reaps the child itself, for the rusage of this child alone.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        sys.exit(f"{label}: exit code {proc.returncode}\n{stdout[-2000:]}{stderr[-2000:]}")
    print(f"  {label}: {wall:.2f} s", file=sys.stderr)
    return {"wall_s": wall, "ru_maxrss_mb": usage.ru_maxrss / 1024.0,
            "ru_minflt": usage.ru_minflt, "stdout": stdout}


def spread(values):
    """Median and quartiles of ``values``, with the values themselves."""
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def child_stats(children):
    return {key: spread(c[key] for c in children)
            for key in ("wall_s", "ru_maxrss_mb", "ru_minflt")}


def perfbench(workload, seed, seconds, trace):
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def perfbench_result(workload, seed, trace):
    path = PERFBENCH_OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def hook_reports(stdout):
    """The traced run's lines on missing hook points and absent metrics."""
    return [line for line in stdout.splitlines()
            if line.startswith(("missing hook points", "absent per-layer metrics"))]


def end_to_end():
    """Untraced ``--workload all`` runs, one per seed, and each workload
    alone; the metrics' medians and quartiles per workload."""
    children = [run_child(perfbench("all", seed, SECONDS, 0), f"perfbench seed {seed}")
                for seed in SEEDS]
    workloads = {}
    for name in WORKLOADS:
        results = [perfbench_result(name, seed, 0) for seed in SEEDS]
        printed = [r["printed"] for r in results]
        order = [m for m in WALL_FIRST if m in printed[0]]
        order += [m for m in printed[0] if m not in order]
        workloads[name] = {
            "correct_runs": sum(r["correct"] for r in results),
            "failed_simulations": sum(r["failed"] for r in results),
            "problems": sorted({p for r in results for p in r["problems"]}),
            "metrics": {m: dict(unit=printed[0][m]["unit"],
                                **spread(p[m]["value"] for p in printed))
                        for m in order},
        }
    for name in WORKLOADS:
        alone = [run_child(perfbench(name, SEEDS[k], SECONDS, 0), f"{name} alone {k + 1}")
                 for k in range(REPEATS)]
        workloads[name]["alone_process"] = child_stats(alone)
    return {"all_process": child_stats(children), "workloads": workloads}


def traced():
    child = run_child(perfbench("all", TRACE_SEED, TRACE_SECONDS, 1), "perfbench traced")
    report = {"seed": TRACE_SEED, "seconds": TRACE_SECONDS,
              "hook_reports": hook_reports(child["stdout"]),
              "process": {k: v for k, v in child.items() if k != "stdout"},
              "workloads": {}}
    for name in WORKLOADS:
        result = perfbench_result(name, TRACE_SEED, 1)
        report["workloads"][name] = {
            "correct": result["correct"], "problems": result["problems"],
            "metrics": {m: dict(entry, n=result["samples"][m])
                        for m, entry in result["printed"].items()}}
    return report


def processes():
    """Import, CLI and acceptance-criterion processes, ``REPEATS`` each."""
    jobs = {"import gaspower, gaspower.cli": ["-c", "import gaspower, gaspower.cli"]}
    with tempfile.TemporaryDirectory(prefix="run-bench-") as tmp:
        for label, (command, scenario) in CLI_RUNS.items():
            jobs[label] = ["-m", "gaspower.cli", command, str(SCENARIOS / scenario),
                           "--outdir", str(Path(tmp) / scenario)]
        for number in CRITERIA:
            jobs[f"criterion {number}"] = [
                "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "tests/test_acceptance.py", "-k", f"criterion_{number}"]
        return {label: child_stats([run_child(args, f"{label} {k + 1}") for k in range(REPEATS)])
                for label, args in jobs.items()}


def machine():
    import numpy
    import scipy
    import yaml

    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
    }


def commit():
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="number of the measured change")
    args = parser.parse_args(argv)
    started = time.time()
    report = {
        "number": args.number,
        "commit": commit(),
        "machine": machine(),
        "settings": {"seeds": list(SEEDS), "seconds": SECONDS, "repeats": REPEATS},
        "end_to_end": end_to_end(),
        "processes": processes(),
        "traced": traced(),
    }
    report["elapsed_s"] = time.time() - started
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
