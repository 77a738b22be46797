"""Front-ends: terminal progress consoles and the SQL console."""

from .console import (
    ProgressConsole,
    error_bar,
    progress_bar,
    render_history,
    render_snapshot,
    render_table,
    run_console,
    sparkline,
)

__all__ = [
    "ProgressConsole",
    "error_bar",
    "progress_bar",
    "render_history",
    "render_snapshot",
    "render_table",
    "run_console",
    "sparkline",
]
