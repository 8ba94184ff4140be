"""Concurrent independence service: the serving layer over the engine.

``repro.serve`` turns the per-schema batch analysis engine into a
long-running, multi-tenant network service: a JSON-lines-over-TCP
asyncio server (:mod:`.server`) whose ``analyze`` endpoint funnels
concurrent requests through a micro-batching admission queue
(:mod:`.batching`) into coalesced ``analyze_matrix`` calls, with every
verdict written through to a restart-surviving store
(:mod:`repro.storage`) and schemas hosted in an LRU-bounded registry
(:mod:`.registry`).

:mod:`.loadgen` is the closed-loop traffic generator used by the
benchmark gate and the CI smoke job.  See ``docs/ARCHITECTURE.md`` for
the layer map and ``docs/PROTOCOL.md`` for the wire reference.
"""

from .batching import MicroBatcher, WireVerdict
from .loadgen import (
    LoadgenConfig,
    dtd_text,
    generated_schema,
    run_loadgen,
    run_loadgen_sync,
    workload_pool,
    workload_pools,
)
from .protocol import ERROR_CODES, OPS, ProtocolError, decode_request, encode
from .registry import BUILTIN_SCHEMAS, SchemaRegistry, UnknownSchemaError
from .server import (
    ANALYSIS_MODES,
    IndependenceService,
    ServeConfig,
    run_service,
)

__all__ = [
    "ANALYSIS_MODES",
    "BUILTIN_SCHEMAS",
    "ERROR_CODES",
    "IndependenceService",
    "LoadgenConfig",
    "MicroBatcher",
    "OPS",
    "ProtocolError",
    "SchemaRegistry",
    "ServeConfig",
    "UnknownSchemaError",
    "WireVerdict",
    "decode_request",
    "dtd_text",
    "encode",
    "generated_schema",
    "run_loadgen",
    "run_loadgen_sync",
    "run_service",
    "workload_pool",
    "workload_pools",
]
