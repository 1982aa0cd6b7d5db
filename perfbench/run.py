"""facemark benchmark: one workload per call, closed loop, single process.

Usage, from the repository root::

    python3 perfbench/run.py --workload {train,sweep,verify,all} --seed N --seconds S --trace {0,1}

``--trace 0`` measures with no wrapper installed and reports the end-to-end
metrics. ``--trace 1`` spends half the window untraced, then replays the same
number of loop units (after a fresh set-up) under :class:`tracer.Tracer` and
reports the per-layer metrics plus the tracing overhead. Both modes run the
reference checks first. The last line of stdout is the JSON result; the
lines before it give the environment, the check outcome, and each metric
with its unit and sample count. The exit code is 1 when a check fails.
``--workload all`` runs each workload in turn in its own process.

The end-to-end metrics mean, per workload:

=============  ==========================  ==============================  ==========================
metric         train                       sweep                           verify
=============  ==========================  ==============================  ==========================
op_ms_p50      one training step           one ``extract`` call            one ``run_verification``
items_per_s    training samples / s        ``watermark_dataset`` images/s  scored pairs / s
task_s         the first 12 steps          one ``run_sweep`` (median)      the first 4 calls
setup_s        median over set-up blocks   median over set-up blocks       median over set-up blocks
peak_rss_mb    process peak RSS            process peak RSS                process peak RSS
=============  ==========================  ==============================  ==========================

On train, ``items_per_s`` is 192 samples over the same 12 steps that make
``task_s``: the two are one measurement, so a regression there shows twice.
"""

import os

# Pinned before numpy loads: the program's float results change in the last
# digits with the BLAS thread count, so figures and reference values hold
# only at this count.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "sweep", "verify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "items_per_s": "1/s",
    "task_s": "s",
}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import tracer
    import workloads

    return tracer, workloads


def _time_setups(workload, inputs):
    """Time ``setup_blocks`` blocks of back-to-back set-ups, each lasting at
    least ``setup_block_seconds``; return the per-set-up mean of each block and
    the last set-up's state."""
    means = []
    for _ in range(workload.sizes.setup_blocks):
        count, t0 = 0, time.perf_counter()
        while count == 0 or time.perf_counter() - t0 < workload.sizes.setup_block_seconds:
            state = workload.setup(inputs)
            count += 1
        means.append((time.perf_counter() - t0) / count)
    return means, state


def run_workload(name, seed, seconds, trace, sizes=None):
    """One benchmark run in this process; returns the result dict plus details."""
    tracer, workloads = _import_program()
    workload = workloads.WORKLOADS[name](sizes or workloads.FULL)
    reference = json.loads((HERE / "reference.json").read_text())[name]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = workload.prepare(seed, work)
        setup_means, state = _time_setups(workload, inputs)
        failures = workloads.compare(workload.check(state), reference)

        wrappers = tracer.installed_wrappers()
        plain = workload.measure(state, seconds / 2 if trace else seconds)
        wrappers += tracer.installed_wrappers()
        if wrappers:
            failures.append(f"tracer wrappers installed during the untraced run: {wrappers}")
        problems = list(plain.problems)
        attempted, failed = plain.attempted, plain.failed

        if trace:
            cpu = os.times()
            with tracer.Tracer() as t:
                traced = workload.measure(workload.setup(inputs), None, units=plain.units)
            cpu = [after - before for before, after in zip(cpu, os.times())]
            problems += traced.problems
            attempted += traced.attempted
            failed += traced.failed
            values = t.layer_metrics({
                "process.user_s": cpu[0],
                "process.sys_s": cpu[1],
                "trace_overhead_frac": traced.wall_s / plain.wall_s - 1.0,
                "failed_ops_frac": failed / attempted,
            })
            metrics = {metric: (values[metric], unit, None) for metric, unit in tracer.LAYER_METRICS}
        else:
            e2e = dict(workload.end_to_end(plain))
            # Set-up is also timed after the measurement, so its figure samples
            # both ends of the run rather than the first seconds only.
            setup_means += _time_setups(workload, inputs)[0]
            e2e["setup_s"] = (statistics.median(setup_means), len(setup_means))
            e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
            metrics = {metric: (e2e[metric][0], unit, e2e[metric][1]) for metric, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not failures and not problems and attempted >= 1,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {metric: {"value": float(v), "unit": unit} for metric, (v, unit, _n) in metrics.items()},
    }
    details = {
        "check_failures": failures,
        "problems": problems,
        "samples": {metric: n for metric, (_v, _unit, n) in metrics.items()},
        "wrappers_in_untraced_run": wrappers,
        "checked_values": len(reference),
    }
    return result, details


def _print_report(name, args, result, details):
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if details["check_failures"]:
        for line in details["check_failures"]:
            print(f"check FAILED {name}: {line}")
    else:
        print(f"check ok {name}: {details['checked_values']} reference values match")
    for line in details["problems"]:
        print(f"output problem {name}: {line}")
    print(f"ops attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        n = details["samples"][metric]
        count = f"  n={n}" if n is not None else ""
        print(f"  {metric:<46} {entry['value']:>14.6g} {entry['unit']:<9}{count}")


def _run_all(args):
    """Each workload in its own process, so peak RSS and state stay per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "facemark" / "__init__.py").is_file():
        print(f"perfbench: no facemark sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(args.workload, args, result, details)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
