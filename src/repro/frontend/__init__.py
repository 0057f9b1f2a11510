"""Sharded async network front end for the estimation service.

See ``docs/SERVICE.md`` ("Network deployment") for the model: an
asyncio TCP/HTTP acceptor routes the existing v1/v2 JSON line protocol
across N ``serve`` shard subprocesses by rendezvous-hashing the graph
spec, with a peak-hold admission controller shedding load before it
can stall the event loop.
"""

from .admission import (
    AdmissionController,
    PeakHoldEstimator,
    TokenBucket,
)
from .loadgen import LoadReport, run_loadgen
from .protocol import (
    DEFAULT_MAX_LINE_BYTES,
    ERROR_CODES,
    ParsedLine,
    error_payload,
    parse_request_line,
)
from .routing import RendezvousRouter, routing_key
from .server import (
    Frontend,
    FrontendConfig,
    ListenError,
    run_http_server,
    run_tcp_server,
)
from .shards import ShardClient, ShardUnavailable, shard_argv

__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_LINE_BYTES",
    "ERROR_CODES",
    "Frontend",
    "FrontendConfig",
    "ListenError",
    "LoadReport",
    "ParsedLine",
    "PeakHoldEstimator",
    "RendezvousRouter",
    "ShardClient",
    "ShardUnavailable",
    "TokenBucket",
    "error_payload",
    "parse_request_line",
    "routing_key",
    "run_http_server",
    "run_loadgen",
    "run_tcp_server",
    "shard_argv",
]
