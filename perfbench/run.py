"""fricke benchmark: four closed-loop workloads, checked against the benchmark's own oracles.

  python3 perfbench/run.py --workload {sweep,scatter,locus_match,cli,all}
                           --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics.  The seed fixes one task list
(the workload's first MEASURE_ROUNDS rounds); passes over it repeat, each
in a fresh interpreter and one task at a time, until S seconds have passed
and at least MIN_PASSES passes have run.  The shared host's speed swings
by up to 1.6x within seconds, so every time is taken to a fixed nominal
speed with the reference kernel timed around it (reference.py); a task's
time is then the median over the passes, and set-up, timed in every pass,
is reported as the median too.

--trace 1 measures the per-layer metrics: the workload's first rounds (a
fixed list, so counts repeat exactly for a seed) run once untraced and once
with wrappers around fricke's public functions, each in a fresh
interpreter; the difference of the two wall times is the tracing overhead.
S does not apply.

Every run prints a report, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs the
four workloads in turn.  The benchmark needs the program's sources under
src/ next to this directory and exits with status 2 without them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
CLI_PROBES = 5
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("monodromy_per_s", "1/s"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_UNITS = {
    "builds": "count", "calls": "count", "evals": "count", "accepted_steps": "count",
    "rejected_steps": "count", "gate_misses": "count", "refined_rows": "count",
    "exit_nonzero": "count", "tasks": "count", "spans": "count", "absent_layers": "count",
    "reject_ratio": "ratio", "det_drift_max": "ratio", "overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


class BenchError(RuntimeError):
    pass


def bench_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(env, workload, seed, rounds, *extra):
    """Run one pass of worker.py; return (seconds until READY, parsed result).

    The result's `ref_before_s` is the reference kernel's time just before
    the worker started, so set-up lies between it and the worker's first
    reference measurement.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), *extra]
    ref_before_s = reference.timed()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=env)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"{workload} worker failed during set-up")
        rest = proc.stdout.read()
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
            raise BenchError(f"{workload} worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return ready_s, dict(json.loads(lines[-1]), ref_before_s=ref_before_s)


def timed_probe(env, code):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=str(ROOT), env=env, timeout=60, check=True).stdout
    return time.perf_counter() - t0, out


def tail(times_ms):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(times_ms)
    if n < 20:
        return f"n/a ({n} tasks, fewer than 20)"
    p = math.floor(100.0 * (n - 10) / n)
    rank = math.ceil(p * n / 100.0)
    return f"{sorted(times_ms)[rank - 1]:.6g} ms at p{p} of {n} tasks"


def failures(result, tag=""):
    out = [(tag + r["index"], r["kind"], r["problems"]) for r in result["records"] if r["problems"]]
    if result["warmup"]["problems"]:
        out.append((tag + "warmup", result["warmup"]["kind"], result["warmup"]["problems"]))
    return out


def at_nominal(seconds, *refs):
    """A time, at the nominal host speed given the reference measurements around it."""
    return seconds * reference.NOMINAL_S / statistics.fmean(refs)


def task_at_nominal(res, i):
    record = res["records"][i]
    return at_nominal(record["s"], res["ref_s"][i], res["ref_s"][i + 1], *record["ref_samples_s"])


def measure(env, workload, seed, seconds):
    rounds = workloads.MEASURE_ROUNDS[workload]
    # cli tasks run in a child process on whichever vCPU is free, so the
    # worker's own speed while it waits says nothing about them.
    sample = () if workload == "cli" else ("--sample",)
    ready, passes = [], []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        ready_s, res = spawn_worker(env, workload, seed, rounds, *sample)
        ready.append(ready_s)
        passes.append(res)
    wall = time.perf_counter() - t_start
    if len({res["inputs_sha256"] for res in passes}) != 1:
        raise BenchError(f"{workload} passes ran different inputs")

    # Every time is taken to the nominal host speed by the reference
    # measurements around it.  A task's time is then its median over the
    # passes, and throughputs divide the list's work by the sum of those times.
    n = len(passes[0]["records"])
    setups = [at_nominal(s, res["ref_before_s"], res["ref_s"][0]) for s, res in zip(ready, passes)]
    task_s = [statistics.median(task_at_nominal(res, i) for res in passes) for i in range(n)]
    raw_s = [statistics.median(res["records"][i]["s"] for res in passes) for i in range(n)]
    times_ms = [s * 1e3 for s in task_s]
    records = [r for res in passes for r in res["records"]]
    residuals = [r["residual"] for r in records if r["residual"] is not None]
    values = {
        "setup_s": statistics.median(setups),
        "task_p50_ms": statistics.median(times_ms),
        "tasks_per_s": n / sum(task_s),
        "monodromy_per_s": sum(r["triples"] for r in passes[0]["records"]) / sum(task_s),
        "accuracy_digits": oracles.digits(max(residuals)) if residuals else 0.0,
        "peak_rss_mb": max(res["peak_rss_kb"] for res in passes) / 1024.0,
    }
    fails = [f for p, res in enumerate(passes) for f in failures(res, f"pass {p} ")]
    refs = [r for res in passes for r in (res["ref_before_s"], *res["ref_s"])]
    info = {
        "workload": workload, "seed": seed, "tasks": n, "passes": len(passes),
        "wall_s": wall,
        "host_speed": f"{reference.NOMINAL_S / statistics.median(refs):.4g} of nominal "
                      f"(median of {len(refs)} reference measurements)",
        "raw": f"setup_s {statistics.median(ready):.6g}, task_p50_ms "
               f"{statistics.median(raw_s) * 1e3:.6g}, tasks_per_s {n / sum(raw_s):.6g} "
               "(wall clock, not taken to the nominal speed)",
        "fail_ratio": sum(1 for f in fails if not f[0].endswith("warmup")) / len(records),
        "task_tail_ms": tail(times_ms), "inputs_sha256": passes[0]["inputs_sha256"],
        "numpy": passes[0]["numpy_version"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, len(records), fails, info


def measure_traced(env, workload, seed):
    spans = ROOT / ".perfbench" / f"spans_{workload}_seed{seed}.json"
    rounds = workloads.TRACE_ROUNDS[workload]
    _, plain = spawn_worker(env, workload, seed, rounds, "--in-process")
    _, traced = spawn_worker(env, workload, seed, rounds, "--in-process", "--trace", "1",
                             "--spans", str(spans))
    values = dict(traced["layers"])
    interp = imp = 0.0
    if workload == "cli":
        interp = statistics.median(timed_probe(env, "pass")[0] for _ in range(CLI_PROBES))
        code = ("import time; t = time.perf_counter(); import fricke.cli; "
                "print(time.perf_counter() - t)")
        imp = statistics.median(float(timed_probe(env, code)[1]) for _ in range(CLI_PROBES))
    values["cli.interpreter_s"] = interp
    values["cli.import_s"] = imp
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.traced_wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    values["trace.tasks"] = len(traced["records"])
    values["trace.spans"] = traced["spans"]
    values["trace.absent_layers"] = len(traced["absent"])
    fails = failures(plain) + failures(traced)
    info = {
        "workload": workload, "seed": seed, "tasks": len(traced["records"]),
        "passes": 1, "absent_layers": traced["absent"],
        "inputs_sha256": traced["inputs_sha256"], "spans_file": str(spans.relative_to(ROOT)),
        "numpy": traced["numpy_version"],
    }
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(values.items())}
    return metrics, len(traced["records"]), fails, info


def report(metrics, fails, info):
    print(f"# workload {info['workload']}  seed {info['seed']}  tasks {info['tasks']}  "
          f"passes {info['passes']}")
    print(f"# inputs_sha256 {info['inputs_sha256']}")
    for key in ("wall_s", "host_speed", "raw", "fail_ratio", "task_tail_ms",
                "absent_layers", "spans_file"):
        if key in info:
            print(f"# {key} {info[key]}")
    print(f"# python {platform.python_version()}  numpy {info['numpy']}  nproc {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"{info['workload']}.{name} {m['value']:.6g} {m['unit']}")
    for index, kind, problems in fails:
        print(f"# FAIL {info['workload']} seed {info['seed']} input {index} ({kind}): "
              + "; ".join(problems))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fricke" / "cli.py").is_file():
        print(f"perfbench: no fricke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = bench_env()
    reference.kernel()  # first-call costs stay out of the first measurement
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {}
    attempted = failed = 0
    for name in names:
        try:
            if args.trace:
                metrics, n, fails, info = measure_traced(env, name, args.seed)
            else:
                metrics, n, fails, info = measure(env, name, args.seed, args.seconds)
        except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(metrics, fails, info)
        attempted += n + sum(1 for f in fails if f[0].endswith("warmup"))
        failed += len(fails)
        combined.update(metrics if len(names) == 1 else
                        {f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
