"""Simulated shared-nothing cluster (the paper's Spark/EC2 stand-in)."""

from .cost import StageCost, broadcast_cost, task_durations
from .events import EventLoop, SlotHeap
from .simulator import (
    ClusterSimulator,
    SimulatedBatch,
    SimulatedRun,
    StageRecovery,
)

__all__ = [
    "ClusterSimulator",
    "EventLoop",
    "SimulatedBatch",
    "SimulatedRun",
    "SlotHeap",
    "StageCost",
    "StageRecovery",
    "broadcast_cost",
    "task_durations",
]
