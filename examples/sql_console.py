#!/usr/bin/env python
"""An interactive online-SQL console (the demo's web console, in a TTY).

Loads the synthetic Conviva-like trace plus the MyTube session log and
lets you type arbitrary aggregate SQL; every query executes online with
progressively refined answers.  Commands:

    \\tables          list registered tables and their schemas
    \\batch <sql>     run a query with the exact batch engine instead
    \\quit            exit

The loop is :func:`repro.frontends.run_console`, the same one
``python -m repro console --rows N`` runs.

Usage:  python examples/sql_console.py [num_rows]
"""

import sys

from repro.frontends import run_console


if __name__ == "__main__":
    run_console(int(sys.argv[1]) if len(sys.argv) > 1 else 100_000)
