"""Layered benchmark of fairmpdag: the fairness sweep and the graph engine.

    python3 perfbench/run.py --workload sweep-id --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``sweep-id``,
``sweep-unid`` and ``graph-scale``, defined in ``workloads.py``. The
benchmark imports the package from ``src/`` of the checkout it sits in and
repeats passes of its workload until ``--seconds`` are used up.

``--trace 0`` measures with nothing wrapped but the three output probes and
prints the end-to-end metrics. ``--trace 1`` runs every pass twice on the
same inputs, once plain and once with every layer hook installed, prints
the per-layer metrics, and states the tracing overhead as the difference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the environment, every run's rmse/mmd2 and every failure with its
exception type; the same, plus the spans of a traced run, is written to
``perfbench/results/``. Every traced run also runs the self-tests in
``selftest.py`` and reports a failure as incorrect output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_PROBE_LIMIT_S = 150  # a setup probe that runs longer kills itself


def prepare_environment() -> None:
    """Pin BLAS threads and put the checkout's ``src/`` first on the path.
    Must run before numpy is imported."""
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))


def import_program() -> bool:
    """Import ``fairmpdag`` from this checkout; False when it has none."""
    try:
        import fairmpdag
    except ImportError as exc:
        print(f"cannot import fairmpdag from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if (ROOT / "src") not in Path(fairmpdag.__file__).resolve().parents:
        print(f"fairmpdag was imported from {fairmpdag.__file__}, not this checkout",
              file=sys.stderr)
        return False
    return True


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def time_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    builds the workload's first graph: the cold start of the program.

    The wait has no timeout, because ``subprocess`` polls a child with a
    timeout in steps of up to 50 ms; the probe bounds its own run time.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_probe(args, workdir: Path) -> None:
    """The cold start that ``time_setup`` times. A build that raises still
    counts as set-up; the measured passes count it as a failure."""
    signal.alarm(SETUP_PROBE_LIMIT_S)
    from fairmpdag import harness
    from workloads import WORKLOADS, load_config

    first = WORKLOADS[args.workload](args.seed, workdir, None).first_config()
    try:
        harness.build_case(load_config(first), 0, 0)
    except Exception:  # noqa: BLE001 - counted by the measured passes
        pass


def measure(args, workdir: Path) -> dict:
    """Run passes until the time is up; returns everything the report needs."""
    from checks import Probe, check_case, same_outputs, undirected_counts
    from layers import trace_hooks
    from tracer import Tracer
    from workloads import WORKLOADS

    probe = Probe()
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, workdir, probe)
    hooks = trace_hooks(tracer)
    problems: list[str] = []
    passes: list[dict] = []
    undirected: list[tuple[int, int]] = []

    def check_built(plain: bool) -> list[str]:
        found = []
        for case, calls in probe.drain():
            found.extend(check_case(case, calls))
            if plain and calls:
                undirected.append(undirected_counts(calls))
        return found

    # the probe's wrappers never record spans, so they get a tracer of their own
    with Tracer().installed(probe.hooks()):
        started = time.perf_counter()
        longest = 0.0
        while True:
            loop_start = time.perf_counter()
            k = len(passes)
            probe.keep = False
            inputs = workload.next_inputs()
            probe.keep = True
            # plain and traced runs of one pass alternate which goes first
            modes = ((False, True) if k % 2 == 0 else (True, False)) if args.trace else (False,)
            pair = {}
            for traced in modes:
                if traced:
                    with tracer.installed(hooks), tracer.recording_run(k):
                        result = workload.run_pass(inputs)
                else:
                    result = workload.run_pass(inputs)
                result.problems.extend(check_built(not traced))
                pair[traced] = result
            if args.trace and not same_outputs(pair[False].records, pair[True].records):
                problems.append(f"pass {k}: traced and plain runs gave different outputs")
            passes.append(pair)
            now = time.perf_counter()
            longest = max(longest, now - loop_start)
            if now - started + longest > args.seconds:
                break
    return {"passes": passes, "problems": problems, "tracer": tracer,
            "undirected": undirected}


def end_to_end(setup_s: float, plain: list) -> dict:
    """Mean pass time and overall case rate over the run's passes.

    Means, not medians over passes: on a shared machine, passes run in fast
    and slow phases a few seconds long. A median jumps between the two modes
    as the share of slow time crosses one half; a mean moves in proportion.
    """
    attempted = sum(r.attempted for r in plain)
    failed = sum(len(r.failures) for r in plain)
    seconds = sum(r.seconds for r in plain)
    return {
        "setup_s": setup_s,
        "wall_s": seconds / len(plain),
        "cases_per_s": sum(r.cases for r in plain) / seconds,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: dict) -> dict:
    from checks import finite
    from layers import layer_metrics

    tracer = run["tracer"]
    pairs = run["passes"]
    metrics = layer_metrics(tracer.spans, tracer.counts, len(pairs))
    plain_seconds = sum(p[False].seconds for p in pairs)
    records = [r for p in pairs for r in p[False].records]
    rmse = [r["rmse"] for r in records if "rmse" in r and finite(r["rmse"])]
    mmd2 = [
        r["mmd2"] for r in records
        if r.get("model") == "eps_ifair" and r["lambda"] > 0 and finite(r["mmd2"])
    ]
    before = [b for b, _ in run["undirected"]]
    after = [a for _, a in run["undirected"]]
    overhead = [(p[True].seconds - p[False].seconds) / p[False].seconds for p in pairs]
    metrics.update({
        "fair_train.epochs_per_s": tracer.counts["fair_train.epochs"] / plain_seconds,
        "fair_train.rmse_mean": statistics.fmean(rmse) if rmse else 0.0,
        "fair_train.mmd2_mean": statistics.fmean(mmd2) if mmd2 else 0.0,
        "workload.undirected_before_bk": statistics.fmean(before) if before else 0.0,
        "workload.undirected_after_bk": statistics.fmean(after) if after else 0.0,
        "trace.overhead_frac": statistics.median(overhead),
        "trace.spans": len(tracer.spans) / len(pairs),
    })
    return metrics


def report(args, env: dict, metrics: dict, run: dict, problems: list[str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        problems.append(
            f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json"
        )
    results = [r for p in run["passes"] for r in p.values()]
    plain = [p[False] for p in run["passes"]]
    detail = {
        "env": env,
        "passes": len(run["passes"]),
        "runs": [dict(r, **{"pass": k}) for k, res in enumerate(plain) for r in res.records],
        "failures": [dict(f, **{"pass": k}) for k, res in enumerate(plain) for f in res.failures],
        "problems": problems,
        "pass_seconds": [{str(t): res.seconds for t, res in p.items()} for p in run["passes"]],
    }
    print(json.dumps(detail))
    if args.trace:
        detail["spans"] = run["tracer"].spans
        detail["counts"] = dict(run["tracer"].counts)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail | {"metrics": metrics}))
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(len(r.failures) for r in results),
        "metrics": {k: {"value": v, "unit": declared.get(k, "")} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-id", "sweep-unid", "graph-scale"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare_environment()
    if not import_program():
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        if args.setup_probe:
            setup_probe(args, workdir)
            return 0
        env = environment(args)
        setup_s = None if args.trace else time_setup(args)
        run = measure(args, workdir)
        problems = list(run["problems"])
        problems += [p for pair in run["passes"] for r in pair.values() for p in r.problems]
        if args.trace:
            from selftest import run_all

            problems += run_all()
            metrics = per_layer(run)
        else:
            metrics = end_to_end(setup_s, [p[False] for p in run["passes"]])
        result = report(args, env, metrics, run, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
