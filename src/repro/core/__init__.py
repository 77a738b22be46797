"""G-OLA core: delta maintenance, classification, controller, sessions."""

from .classify import IntervalEnv, interval_eval, tri_eval
from .controller import QueryController
from .delta import BlockRuntime, CachedRows, parse_block
from .lineage import lineage_columns
from .meta_plan import MetaPlan, compile_meta_plan
from .result import ColumnErrors, OnlineSnapshot
from .session import GolaSession, OnlineQuery
from .uncertain import (
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    KeyedSlotState,
    ScalarSlotState,
    SetSlotState,
)

__all__ = [
    "BlockRuntime",
    "CachedRows",
    "ColumnErrors",
    "GolaSession",
    "IntervalEnv",
    "KeyedSlotState",
    "MetaPlan",
    "OnlineQuery",
    "OnlineSnapshot",
    "QueryController",
    "ScalarSlotState",
    "SetSlotState",
    "TRI_FALSE",
    "TRI_TRUE",
    "TRI_UNKNOWN",
    "compile_meta_plan",
    "interval_eval",
    "lineage_columns",
    "parse_block",
    "tri_eval",
]
