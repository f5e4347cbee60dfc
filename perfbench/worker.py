"""One fresh interpreter running one pass over a workload's task list; started by run.py.

Prints `READY` once fricke is imported and the untimed warm-up task has
finished (run.py times set-up up to that line), then runs the seed's first
--rounds rounds once, one task at a time, and prints one JSON line with the
per-task records.  With --trace 1 the pass runs under the tracer's wrappers.

Each pass is its own process, so nothing the program keeps in memory
outlives a pass: repeating a task list in later passes cannot turn into a
cache hit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def run_task(runner, task, index, records, tracer=None, sampler=None):
    if tracer is not None:
        tracer.start_task(index)
    if sampler is not None:
        first, spent = len(sampler.samples), sampler.spent_s
        sampler.start()
    t0 = time.perf_counter()
    try:
        out = runner.run(task)
        error = None
    except Exception as exc:  # a typed error from the program counts as a failed task
        out = workloads.Outcome()
        error = f"{type(exc).__name__}: {exc}"
    if sampler is not None:
        sampler.stop()
    dt = time.perf_counter() - t0
    samples = []
    if sampler is not None:
        dt -= sampler.spent_s - spent
        samples = sampler.samples[first:]
    problems = out.problems + ([error] if error else [])
    records.append({
        "index": index,
        "kind": task.get("verb", task["kind"]),
        "s": dt,
        "ref_samples_s": samples,
        "residual": out.residual,
        "triples": out.triples,
        "problems": problems,
    })


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--in-process", action="store_true",
                    help="run cli tasks through cli.dispatch instead of subprocesses")
    ap.add_argument("--spans", help="write the traced spans to this file")
    ap.add_argument("--sample", action="store_true",
                    help="time the reference kernel during tasks as well as between them")
    args = ap.parse_args(argv)

    import numpy

    from fricke import abelmono, algebra, charvar, cli, covering, dodeca, lorentz, spingraft

    runner = workloads.Runner(str(ROOT), dict(os.environ), in_process=args.in_process)
    warm = []
    run_task(runner, workloads.WARMUP[args.workload], "warmup", warm)
    print("READY", flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer({
            "abelmono": abelmono, "algebra": algebra, "charvar": charvar, "cli": cli,
            "covering": covering, "dodeca": dodeca, "lorentz": lorentz, "spingraft": spingraft,
        })
        tracer.install()

    # The reference kernel runs before every task and after the last, so
    # each task lies between two measurements of the host's speed; with
    # --sample it also runs every few hundredths of a second during a task.
    tasks = workloads.task_list(args.workload, args.seed, args.rounds)
    sampler = reference.Sampler() if args.sample else None
    records, ref_s = [], []
    reference.kernel()
    t_start = time.perf_counter()
    for index, task in tasks:
        ref_s.append(reference.timed())
        run_task(runner, task, index, records, tracer, sampler)
    ref_s.append(reference.timed())
    wall_s = time.perf_counter() - t_start

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.in_process
           else resource.RUSAGE_SELF)
    result = {
        "records": records,
        "warmup": warm[0],
        "wall_s": wall_s,
        "ref_s": ref_s,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "inputs_sha256": workloads.inputs_digest(task for _, task in tasks),
        "numpy_version": numpy.__version__,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(
                {"fields": ["id", "parent", "layer", "task", "start_s", "end_s"],
                 "spans": tracer.spans}
            ))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
