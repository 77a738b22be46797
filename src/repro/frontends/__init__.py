"""Front-ends: terminal progress consoles and dashboards."""

from .console import (
    ProgressConsole,
    error_bar,
    progress_bar,
    render_history,
    render_snapshot,
    render_table,
    sparkline,
)

__all__ = [
    "ProgressConsole",
    "error_bar",
    "progress_bar",
    "render_history",
    "render_snapshot",
    "render_table",
    "sparkline",
]
