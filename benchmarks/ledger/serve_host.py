"""The system under test of ``serve_mix``: ``GolaServer`` in its own process.

Binds an ephemeral port, prints ``{"url": ...}`` on one line of stdout
once it serves, runs until stdin reaches end of file, shuts down and
prints ``{"peak_rss_mb": ...}``.  The load comes from another process
(``serve_client.py``), so the client's work is not in the server's RSS
and cannot hold the server's interpreter lock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import GolaConfig, GolaSession  # noqa: E402
from repro.serve import GolaServer, QueryScheduler  # noqa: E402
from repro.workloads import generate_conviva, generate_sessions  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--batches", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    session = GolaSession(GolaConfig(
        num_batches=args.batches, bootstrap_trials=args.trials,
        seed=args.seed, trace=bool(args.trace),
    ))
    session.register_table("sessions",
                           generate_sessions(args.rows, seed=args.seed))
    session.register_table("conviva",
                           generate_conviva(args.rows, seed=args.seed))
    server = GolaServer(QueryScheduler(session), host="127.0.0.1", port=0)
    server.start()
    try:
        print(json.dumps({"url": server.url}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
