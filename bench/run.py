"""End-to-end benchmark of extlasso: one workload per run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from a source checkout: the package is imported from `src/` next to
this directory, and the CLI commands are started with that `src/` on
PYTHONPATH.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full result, with the
machine it ran on, goes to `bench/out/`.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh-interpreter set-ups per run, whose median is setup_s
SETUP_REPEATS = 5
#: `extlasso --version` start-ups per traced run, whose median is cli.startup_s
STARTUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

#: span names of the layers, in the order their metrics are printed
LAYERS = ("datagen.gen_instance", "experiments.cell_instance", "solver.solve",
          "solver.restricted_solution", "diagnostics.kkt_check",
          "diagnostics.witness", "diagnostics.recovery_metrics",
          "diagnostics.re_estimate", "model.instance_to_json",
          "model.instance_from_json", "model.solution_to_json",
          "model.solution_from_json", "cli.generate", "cli.solve",
          "cli.verify")
#: spans of the benchmark itself: the trial's glue and the checks
OWN_SPANS = ("trial", "bench.checks")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the acceptance suite's)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the timed loop; whole rounds are run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import extlasso from this checkout's src/, never from elsewhere."""
    init = SRC / "extlasso" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no extlasso source at {init}")
    sys.path.insert(0, str(SRC))
    import extlasso
    if Path(extlasso.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported extlasso from {extlasso.__file__}")


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "package.src_lines": src_lines(),
    }


def timed_spawn(argv, env=None, ready: bytes | None = None) -> float:
    """Seconds from starting a process to its `ready` line (or its exit)."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        try:
            if ready is not None:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    if ready is None:
        elapsed = time.perf_counter() - t0
        line = b""
    if code != 0 or (ready is not None and line.strip() != ready):
        raise SystemExit(f"bench: {argv} exited {code} ({line!r})")
    return elapsed


def setup_seconds(args) -> float:
    """Median time for a fresh interpreter to import extlasso and build the
    workload's inputs: the same set-up the measured process went through."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--probe"]
    return statistics.median(timed_spawn(argv, ready=b"ready")
                             for _ in range(SETUP_REPEATS))


def cli_startup_seconds(env) -> float:
    argv = [sys.executable, "-m", "extlasso.cli", "--version"]
    return statistics.median(timed_spawn(argv, env=env)
                             for _ in range(STARTUP_REPEATS))


def run_rounds(workload, tracer, seconds: float, paired: bool):
    """Whole rounds until `seconds` have passed.

    With `paired`, every round runs twice on the same inputs, once traced and
    once not, alternating which goes first; returns the trials of both kinds.
    """
    untraced, traced = [], []
    t0 = time.perf_counter()
    rnd = 0
    while True:
        order = (False, True) if rnd % 2 == 0 else (True, False)
        for with_trace in (order if paired else (False,)):
            if with_trace:
                tracer.start()
            try:
                trials = [workload.trial(rnd, i)
                          for i in range(workload.round_size)]
            finally:
                tracer.stop()
            (traced if with_trace else untraced).extend(trials)
        rnd += 1
        if time.perf_counter() - t0 >= seconds:
            return untraced, traced, time.perf_counter() - t0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(trials, setup_s: float, peak_rss_kib: int) -> dict:
    """Throughput and latency over the timed parts of the trials only, so
    the benchmark's own checks between trials do not count."""
    passed = sum(1 for t in trials if not t.failed and not t.problems)
    return {
        "setup_s": metric(setup_s, "s"),
        "trials_per_s": metric(passed / sum(t.seconds for t in trials),
                               "trials/s"),
        "trial_p50_s": metric(statistics.median(t.seconds for t in trials),
                              "s"),
        "peak_rss_mb": metric(peak_rss_kib * 1024 / 1e6, "MB"),
    }


def per_layer_metrics(tracer, untraced, traced, env, startup_s) -> dict:
    summary = tracer.summary()

    def stat(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "counts": {}})

    def ratio(a, b):
        return a / b if b else 0.0

    n_trials = len(traced)
    out = {}
    for name in LAYERS:
        s = stat(name)
        out[f"{name}_s"] = metric(ratio(s["total_s"], s["calls"]), "s/call")
    solve = stat("solver.solve")
    sweeps = solve["counts"].get("sweeps", 0)
    out["solver.sweeps"] = metric(ratio(sweeps, solve["calls"]),
                                  "sweeps/solve")
    out["solver.sweep_s"] = metric(ratio(solve["total_s"], sweeps), "s/sweep")
    re_est = stat("diagnostics.re_estimate")
    out["diagnostics.re_samples_per_s"] = metric(
        ratio(re_est["counts"].get("samples", 0), re_est["total_s"]),
        "samples/s")
    for kind in ("instance", "solution"):
        s = stat(f"model.{kind}_from_json")
        out[f"model.{kind}_json_bytes"] = metric(
            ratio(s["counts"].get("bytes", 0), s["calls"]), "bytes")
    out["cli.startup_s"] = metric(startup_s, "s")
    out["package.src_lines"] = metric(env["package.src_lines"], "lines")
    for name in OWN_SPANS + LAYERS:
        out[f"{name}.self_s"] = metric(
            ratio(stat(name)["self_s"], n_trials), "s/trial")
    plain = sum(t.seconds for t in untraced)
    with_trace = sum(t.seconds for t in traced)
    out["trace.overhead_s"] = metric(ratio(with_trace - plain, n_trials),
                                     "s/trial")
    out["trace.overhead_share"] = metric(ratio(with_trace, plain) - 1.0,
                                         "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import spans
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = cls.default_seed
    if args.probe:
        cls(args.seed, spans.Tracer(), None)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = spans.Tracer()
        workloads.register_layers(tracer)
        workload = cls(args.seed, tracer, str(workdir))
        untraced, traced, elapsed = run_rounds(workload, tracer,
                                               args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    trials = untraced + traced
    env = environment(args.seed)
    if args.trace:
        metrics = per_layer_metrics(tracer, untraced, traced, env,
                                    cli_startup_seconds(workloads.cli_env()))
        tracer.write(OUT / f"spans-{tag}.json")
    else:
        metrics = end_to_end_metrics(trials, setup_s,
                                     workload.peak_rss_kib())
    problems = [p for t in trials for p in t.problems]
    result = {"correct": not problems, "attempted": len(trials),
              "failed": sum(t.failed for t in trials), "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "workload": args.workload,
                   "seconds": args.seconds, "elapsed_s": elapsed,
                   "environment": env, "problems": problems,
                   "trial_seconds": [t.seconds for t in trials]}, fh, indent=2)
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
