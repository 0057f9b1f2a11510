"""Synchronous message-passing runtime (substrate S1).

This package is the faithful implementation of the model in Section III of
the paper: an undirected graph, synchronous rounds, ``O(log n)``-bit
messages, unique IDs, and per-node private randomness.
"""

from .errors import (
    AlreadyTerminated,
    MessageTooLarge,
    NotTerminated,
    ProtocolViolation,
    RoundLimitExceeded,
    SimulationError,
    UnknownNeighbor,
)
from .message import Message, UNBOUNDED_SLOTS, slot_cost
from .metrics import RoundRecord, RunMetrics
from .network import DEFAULT_SLOT_LIMIT, RunResult, SyncNetwork, run_mis_protocol
from .node import NodeContext, NodeProcess, ProcessFactory
from .rng import (
    as_seed_sequence,
    generator_from,
    random_unique_ids,
    spawn_node_rngs,
    spawn_trial_seeds,
)
from .staged import StagedProcess
from .trace import MessageTrace, TraceEvent

__all__ = [
    "AlreadyTerminated",
    "MessageTooLarge",
    "NotTerminated",
    "ProtocolViolation",
    "RoundLimitExceeded",
    "SimulationError",
    "UnknownNeighbor",
    "Message",
    "UNBOUNDED_SLOTS",
    "slot_cost",
    "RoundRecord",
    "RunMetrics",
    "DEFAULT_SLOT_LIMIT",
    "RunResult",
    "SyncNetwork",
    "run_mis_protocol",
    "NodeContext",
    "NodeProcess",
    "ProcessFactory",
    "as_seed_sequence",
    "generator_from",
    "random_unique_ids",
    "spawn_node_rngs",
    "spawn_trial_seeds",
    "StagedProcess",
    "MessageTrace",
    "TraceEvent",
]
