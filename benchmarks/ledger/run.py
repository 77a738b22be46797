"""The repo's wall-clock benchmark: four workloads, one command.

    python3 benchmarks/ledger/run.py --workload nested_mem --seed 2015 \\
        --seconds 21 --trace 0

A *run* of a workload is TRIALS fresh processes, one after the other.
Each sets the workload up (timed: ``setup_s``), warms up, takes its
reference outputs, measures whole passes over the workload's query list
for its share of ``--seconds`` and checks every output.  The run
reports, of every timing of a pass, the median over the passes of all
its trials, and of set-up time and peak RSS the median over its trials.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics.  Without ``--workload`` all four run in turn.
The last line of standard output is one JSON object.  README.md has
the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import stats
from metrics import END_TO_END, PER_LAYER, WORKLOADS

#: Set-up is timed from here: numpy and the program are imported later,
#: by the trial, so importing them counts as set-up.
STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORK = HERE / "_work"

#: Fresh processes per run; each measures --seconds / TRIALS.
TRIALS = 3
#: A run that is not done by then is killed and fails.
RUN_TIMEOUT_S = 170
SMOKE_DIVISOR = 20


def trial(args) -> int:
    """One process of a run: prints its result as one JSON line."""
    sys.path.insert(0, str(SRC))
    if args.workload == "serve_mix":
        import serve_client

        sizes = serve_client.ServeSizes()
        if args.smoke:
            sizes = sizes.smoke(SMOKE_DIVISOR)
        result = serve_client.run_trial(sizes, args.seed, args.seconds,
                                        bool(args.trace))
    else:
        import workloads

        workload = workloads.IN_PROCESS[args.workload]
        if args.smoke:
            workload = workload.smoke(SMOKE_DIVISOR)
        result = workloads.run_trial(workload, args.seed, args.seconds,
                                     bool(args.trace), args.workdir,
                                     STARTED)
    print(json.dumps(result))
    return 0


def run_trials(workload: str, args) -> List[dict]:
    """Each trial in a process of its own: its own RSS, no allocator
    state or warm cache carried from one trial to the next."""
    trials = 1 if args.smoke else TRIALS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for index in range(trials):
        workdir = WORK / f"{workload}-{os.getpid()}-{index}"
        workdir.mkdir(parents=True)
        env = dict(
            os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
            # Whatever asks for a temporary file stays in the checkout.
            TMPDIR=str(workdir),
        )
        command = [
            sys.executable, str(HERE / "run.py"), "--trial",
            "--workload", workload,
            # Each trial orders its queries by a seed of its own.
            "--seed", str(args.seed * trials + index),
            "--seconds", repr(args.seconds / trials),
            "--trace", str(args.trace), "--workdir", str(workdir),
        ] + (["--smoke"] if args.smoke else [])
        try:
            done = subprocess.run(
                command, env=env, stdout=subprocess.PIPE, text=True,
                timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if not any(WORK.iterdir()):
                WORK.rmdir()
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload}: trial {index} exited with {done.returncode}")
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


def combine(trials: List[dict], trace: int) -> dict:
    """The run's result: medians, failures summed.

    Tracing off: a timing of a pass is the median over the passes of
    all trials; set-up time and peak RSS, which a process has once, are
    medians over the trials.  Traced: every layer is the median over the
    trials that reach it, and None if none does.
    """
    if trace:
        samples = {name: [t["layers"][name] for t in trials
                          if name in t["layers"]] for name in PER_LAYER}
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        passes = [p for t in trials for p in t["passes"]]
        samples = {name: [p[name] for p in passes] if name in passes[0]
                   else [t[name] for t in trials] for name in END_TO_END}
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    metrics = {name: {"value": stats.median(v) if v else None,
                      "unit": units[name]} for name, v in samples.items()}
    failed = sum(t["failed"] for t in trials)
    return {
        "correct": failed == 0,
        "attempted": sum(t["attempted"] for t in trials),
        "failed": failed,
        "passes": sum(t["pass_count"] for t in trials),
        "metrics": metrics,
    }


def driver_line(result: dict) -> str:
    """The last line of standard output, as the driver reads it: the
    four keys, and a number for every metric (a layer the workload does
    not reach is null in the report and in --json, and 0 here)."""
    metrics = {name: dict(m, value=0.0 if m["value"] is None else m["value"])
               for name, m in result["metrics"].items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def host_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def report(workload: str, args, trials: List[dict], result: dict,
           host: dict) -> None:
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds}  "
          f"{kind}  host={json.dumps(host)}")
    passes = result["passes"]
    for name, metric in result["metrics"].items():
        if metric["value"] is None:
            print(f"{name:40s} {'n/a':>16s} {metric['unit']}")
            continue
        note = ""
        if name == "ttfa_p90_s":
            n = result["attempted"] // passes
            note = f"   (of {n} a pass" + ("" if stats.supported(n, 90) else
                                         ", fewer than ten beyond it") + ")"
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}{note}")
    print(f"{'operations':40s} {result['attempted']:16d} count   "
          f"({passes} passes in {len(trials)} trials)")
    print(f"{'failed_frac':40s} "
          f"{result['failed'] / result['attempted']:16.6f} ratio")
    if not args.trace:
        per_s = (result["attempted"] / passes
                 / result["metrics"]["pass_s"]["value"])
        print(f"{'throughput':40s} {per_s:16.6f} queries/s")
    for trial_result in trials:
        for line in trial_result["failures"]:
            print(f"FAILED {workload}: {line}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: 21, "
                             "with --smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help=f"rows / {SMOKE_DIVISOR}, one trial, same "
                             "checks")
    parser.add_argument("--json", metavar="OUT",
                        help="append one JSON line per workload to OUT "
                             "(what compare.py reads)")
    parser.add_argument("--trial", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 21.0
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program is not here: {SRC / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    if args.trial:
        return trial(args)

    host = host_info()
    results = {}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        trials = run_trials(workload, args)
        result = results[workload] = combine(trials, args.trace)
        report(workload, args, trials, result, host)
        if args.json:
            with open(args.json, "a", encoding="utf-8") as out:
                out.write(json.dumps(dict(
                    result, workload=workload, seed=args.seed,
                    trace=args.trace, seconds=args.seconds,
                    smoke=args.smoke, host=host,
                )) + "\n")
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        print(driver_line(results[args.workload]))
    else:
        print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
