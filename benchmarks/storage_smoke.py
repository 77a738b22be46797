"""Storage smoke: stream a dataset 4x larger than the process budget.

The memory claim behind colstore is that a converted dataset never has
to fit in the process heap: ``plain``-coded numeric columns decode to
zero-copy views into a ``np.memmap`` and the controller touches one
mini-batch at a time.  This harness *enforces* that claim instead of
asserting it:

1. convert an all-numeric sessions table to a colstore dataset whose
   decoded size is exactly 4x a memory budget;
2. run the paper's SBI query in a child process whose ``RLIMIT_DATA``
   is clamped to (post-import baseline + budget) — the query must
   complete and its final snapshot must match an unbudgeted in-memory
   reference run bitwise;
3. prove the budget is real: a sibling child under the same limit that
   tries to materialize the dataset with ``to_table()`` must die of
   MemoryError;
4. check C3/Q17 and a bare ``SELECT COUNT(*)`` for snapshot-stream
   bit-identity (colstore vs in-memory) and for a final snapshot equal
   to ``execute_batch``, and embed the dataset's ``repro inspect``
   report in the JSON.  The COUNT(*) stream reads no column at all, so
   every batch it sees is a zero-column table that must still carry
   its rows;
5. check that the unbudgeted in-memory reference session's
   ``session.store_bytes`` is at most ``8 + TRIALS`` bytes per row
   after its full run: the store keeps the table's permutation and
   uint8 weights, so a returning full-width shuffled copy fails.

The streaming claim covers the steady-state fold path, not guard
recomputation: a rebuild *by contract* re-ingests the concatenated
prefix of batches seen with its dense weight matrix, which no fixed budget can
absorb.  G-OLA's answer to that is the ε knob (``epsilon_multiplier``):
wider variation ranges trade a slightly larger uncertain set for a
lower recomputation probability.  With only ``TRIALS = 8`` bootstrap
replicas the ranges are noisy, so the parent escalates ε until the
unbudgeted reference run reports zero rebuilds and hands that ε to the
budgeted child — both runs share one config, so bit-identity still
holds.  The chosen ε and the uncertain-set high-water mark land in the
JSON report.

On platforms without ``RLIMIT_DATA`` (or an unreadable
``/proc/self/status``) the memory gates are SKIPPED with a loud warning
and the skip recorded in the JSON; the identity gates always run.

CI runs ``--smoke``; locally::

    PYTHONPATH=src python benchmarks/storage_smoke.py --json report.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

K_BATCHES = 32
TRIALS = 8
SEED = 2015
# ε escalation ladder: smallest rebuild-free multiplier wins (paper
# default is 1.0; B=8 replicas need more slack — see module docstring).
EPSILON_LADDER = (6.0, 10.0, 16.0, 24.0)


def _vm_data_kb() -> int:
    """Current VmData (heap + anonymous mappings) in kB, or -1."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmData:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def _rlimit_supported() -> bool:
    try:
        import resource

        resource.getrlimit(resource.RLIMIT_DATA)
    except (ImportError, AttributeError, OSError, ValueError):
        return False
    return _vm_data_kb() > 0


# ---------------------------------------------------------------------------
# Child modes (re-invocations of this file with --child)
# ---------------------------------------------------------------------------

def _child(mode: str, dataset: str, budget_bytes: int,
           epsilon: float) -> int:
    """Run under an enforced RLIMIT_DATA; emit a JSON line on stdout.

    Everything heavy is imported *before* the limit is applied, so the
    budget constrains the query's working set, not interpreter startup.
    """
    import resource

    import numpy as np  # noqa: F401  (priced into the baseline)

    from repro import GolaConfig, GolaSession
    from repro.qa.identity import snapshot_fingerprint
    from repro.workloads import SBI_QUERY

    baseline_kb = _vm_data_kb()
    limit = baseline_kb * 1024 + budget_bytes
    resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))

    if mode == "materialize":
        # Must die: decoding every partition into one heap-resident
        # table needs 4x the budget.
        try:
            from repro.storage.colstore import open_dataset

            table = open_dataset(dataset).to_table()
            print(json.dumps({
                "mode": mode, "memory_error": False,
                "rows": table.num_rows,
            }))
        except MemoryError:
            print(json.dumps({"mode": mode, "memory_error": True}))
        return 0

    config = GolaConfig(num_batches=K_BATCHES, bootstrap_trials=TRIALS,
                        seed=SEED, epsilon_multiplier=epsilon)
    session = GolaSession(config)
    session.register_colstore("sessions", dataset)
    snaps = list(session.sql(SBI_QUERY).run_online())
    fingerprint, count = snapshot_fingerprint(snaps)
    print(json.dumps({
        "mode": mode,
        "fingerprint": fingerprint,
        "snapshots": count,
        "baseline_kb": baseline_kb,
        "budget_bytes": budget_bytes,
        "peak_vm_data_kb": _vm_data_kb(),
    }))
    return 0


def _spawn_child(mode: str, dataset: Path, budget_bytes: int,
                 epsilon: float):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", mode,
         "--dataset", str(dataset), "--budget-bytes", str(budget_bytes),
         "--epsilon", str(epsilon)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    payload = None
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            payload = json.loads(line)
    return proc, payload


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------

def _wide_sessions(rows: int):
    """The sessions table plus eight telemetry metric columns.

    Wide fact tables are where the columnar claim bites: SBI touches
    two of eleven columns, and the nine it never reads stay on disk —
    ``plain``-coded mmap columns decode to zero-copy views, so they
    cost address space, not budgeted heap.
    """
    import numpy as np

    from repro.storage.table import Table
    from repro.workloads import generate_sessions

    base = generate_sessions(rows, seed=SEED)
    rng = np.random.default_rng(SEED + 1)
    columns = {name: base.column(name) for name in base.schema.names}
    for i in range(8):
        columns[f"metric_{i}"] = rng.normal(0.0, 1.0, rows)
    return Table.from_columns(columns)


def _identity_checks(rows: int):
    """C3/Q17/COUNT(*) colstore-vs-in-memory stream identity, and each
    colstore stream's final snapshot against ``execute_batch`` (no
    rlimit)."""
    from repro import GolaConfig, GolaSession
    from repro.qa.compare import compare_tables
    from repro.qa.identity import snapshot_fingerprint
    from repro.storage.colstore import convert_table
    from repro.workloads import (
        CONVIVA_QUERIES,
        TPCH_QUERIES,
        generate_conviva,
        generate_sessions,
        generate_tpch,
    )

    jobs = [
        ("C3", "conviva", generate_conviva, CONVIVA_QUERIES["C3"]),
        ("Q17", "tpch", generate_tpch, TPCH_QUERIES["Q17"]),
        ("COUNT", "sessions", generate_sessions,
         "SELECT COUNT(*) FROM sessions"),
    ]
    out = []
    config = GolaConfig(num_batches=6, bootstrap_trials=TRIALS, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        for name, table_name, generate, sql in jobs:
            table = generate(rows, seed=SEED)
            path = Path(tmp) / table_name
            if not path.exists():
                convert_table(table, path, num_batches=6, seed=SEED,
                              shuffle=True)
            mem = GolaSession(config)
            mem.register_table(table_name, table)
            mem_fp = snapshot_fingerprint(mem.sql(sql).run_online())
            cs = GolaSession(config)
            cs.register_colstore(table_name, path)
            snaps = list(cs.sql(sql).run_online())
            cs_fp = snapshot_fingerprint(snaps)
            out.append({
                "query": name,
                "rows": rows,
                "identical": cs_fp == mem_fp,
                "final_vs_exact": compare_tables(
                    cs.execute_batch(sql), snaps[-1].table, rtol=1e-9),
            })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=4_000_000)
    parser.add_argument("--identity-rows", type=int, default=40_000)
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes (~1M rows, same gates)")
    parser.add_argument("--child", default=None,
                        choices=("stream", "materialize"))
    parser.add_argument("--dataset", default=None)
    parser.add_argument("--budget-bytes", type=int, default=0)
    parser.add_argument("--epsilon", type=float,
                        default=EPSILON_LADDER[0])
    args = parser.parse_args(argv)

    if args.child:
        return _child(args.child, args.dataset, args.budget_bytes,
                      args.epsilon)

    if args.smoke:
        args.rows = min(args.rows, 1_000_000)
        args.identity_rows = min(args.identity_rows, 12_000)

    from repro import GolaConfig, GolaSession
    from repro.obs import MetricsRegistry, Tracer
    from repro.qa.identity import snapshot_fingerprint
    from repro.storage.colstore import convert_table, open_dataset
    from repro.workloads import SBI_QUERY

    failures = []
    print(f"generating {args.rows:,} wide session rows ...")
    table = _wide_sessions(args.rows)

    tmp = tempfile.TemporaryDirectory(prefix="storage-smoke-")
    dataset = Path(tmp.name) / "sessions"
    # plain codec: numeric columns decode to zero-copy mmap views, so
    # streaming cost is one batch of weights + states, not the table.
    convert_table(table, dataset, num_batches=K_BATCHES, seed=SEED,
                  shuffle=True, codec="plain")
    ds = open_dataset(dataset)
    decoded = ds.estimated_bytes
    budget = decoded // 4
    print(f"dataset: {decoded:,} decoded bytes in {K_BATCHES} "
          f"partitions; budget {budget:,} bytes (4x smaller)")

    # Escalate ε until the reference run is rebuild-free (module
    # docstring explains why a rebuild is outside the streaming claim).
    epsilon = ref_fp = ref_count = max_uncertain = store_bytes = None
    for candidate in EPSILON_LADDER:
        config = GolaConfig(num_batches=K_BATCHES,
                            bootstrap_trials=TRIALS, seed=SEED,
                            epsilon_multiplier=candidate)
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        reference = GolaSession(config, tracer=tracer)
        reference.register_table("sessions", table)
        snaps = list(reference.sql(SBI_QUERY).run_online())
        store_bytes = tracer.metrics.snapshot().gauges[
            "session.store_bytes"]
        rebuilds = sum(len(s.rebuilds) for s in snaps)
        max_uncertain = max(
            sum(s.uncertain_sizes.values()) for s in snaps
        )
        print(f"  reference at epsilon={candidate}: "
              f"rebuilds={rebuilds} max_uncertain={max_uncertain:,}")
        if rebuilds == 0:
            epsilon = candidate
            ref_fp, ref_count = snapshot_fingerprint(snaps)
            break
    if epsilon is None:
        print("FAIL: no epsilon in the ladder gave a rebuild-free "
              "reference run", file=sys.stderr)
        return 1

    # The in-memory session keeps the streamed table's batch plan and
    # weights, never a shuffled copy of it: an int64 permutation plus
    # TRIALS uint8 weights per row.  A full-width copy would add the
    # table's own width (~90 bytes per row here).
    store_limit = (8 + TRIALS) * args.rows
    print(f"  in-memory store: {store_bytes:,.0f} bytes "
          f"(limit {store_limit:,})")
    if store_bytes > store_limit:
        failures.append(
            f"in-memory session.store_bytes {store_bytes:,.0f} exceeds "
            f"(8 + {TRIALS}) bytes per row ({store_limit:,}): the store "
            "holds more than a permutation and weights"
        )

    report = {
        "benchmark": "storage_smoke",
        "smoke": args.smoke,
        "rows": args.rows,
        "batches": K_BATCHES,
        "trials": TRIALS,
        "decoded_bytes": decoded,
        "budget_bytes": budget,
        "budget_ratio": round(decoded / budget, 2),
        "epsilon_multiplier": epsilon,
        "max_uncertain_rows": max_uncertain,
        "memory_store_bytes": store_bytes,
        "memory_store_limit_bytes": store_limit,
        "rlimit_enforced": _rlimit_supported(),
    }

    if report["rlimit_enforced"]:
        print(f"SBI under RLIMIT_DATA = baseline + {budget:,} bytes ...")
        proc, payload = _spawn_child("stream", dataset, budget, epsilon)
        ok = (proc.returncode == 0 and payload is not None
              and payload["fingerprint"] == ref_fp
              and payload["snapshots"] == ref_count)
        report["stream"] = {
            "returncode": proc.returncode,
            "payload": payload,
            "identical_to_memory": ok,
        }
        if not ok:
            failures.append(
                "budgeted SBI stream failed or diverged: "
                f"rc={proc.returncode} stderr={proc.stderr[-500:]!r}"
            )
        else:
            print(f"  completed {payload['snapshots']} snapshots, "
                  f"bit-identical to in-memory "
                  f"(VmData {payload['baseline_kb']} -> "
                  f"{payload['peak_vm_data_kb']} kB)")

        proc, payload = _spawn_child("materialize", dataset, budget,
                                     epsilon)
        died = payload is not None and payload.get("memory_error") \
            or proc.returncode != 0
        report["materialize_control"] = {
            "returncode": proc.returncode,
            "payload": payload,
            "hit_memory_error": bool(died),
        }
        if not died:
            failures.append(
                "materialize control survived under the budget — the "
                "rlimit is not actually constraining the heap"
            )
        else:
            print("  materialize control died of MemoryError under the "
                  "same budget (the limit is real)")
    else:
        report["stream"] = report["materialize_control"] = None
        print(
            "=" * 72 + "\n"
            "WARNING: RLIMIT_DATA not supported on this platform; the\n"
            "  memory-budget gates are SKIPPED, not passed.  Identity\n"
            "  gates below still run.\n" + "=" * 72,
            file=sys.stderr,
        )

    print(f"identity checks (C3/Q17/COUNT, {args.identity_rows:,} rows) "
          "...")
    identity = _identity_checks(args.identity_rows)
    report["identity"] = identity
    for entry in identity:
        print(f"  {entry['query']}: identical={entry['identical']} "
              f"final_vs_exact={entry['final_vs_exact'] or 'equal'}")
        if not entry["identical"]:
            failures.append(
                f"{entry['query']} colstore stream diverged from "
                "in-memory"
            )
        if entry["final_vs_exact"]:
            failures.append(
                f"{entry['query']} final snapshot differs from "
                f"execute_batch: {entry['final_vs_exact']}"
            )

    inspect = subprocess.run(
        [sys.executable, "-m", "repro", "inspect", str(dataset),
         "--json"],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                               / "src")},
    )
    report["inspect"] = (json.loads(inspect.stdout)
                         if inspect.returncode == 0 else None)

    report["failures"] = failures
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n",
                                   encoding="utf-8")
        print(f"report written to {args.json}")
    tmp.cleanup()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
