"""Evaluation engines for the Triple Algebra."""

from repro.core.engines.base import Engine, PlanEngine, TripleSet
from repro.core.engines.hashjoin import FastEngine, HashJoinEngine
from repro.core.engines.naive import NaiveEngine
from repro.core.engines.sharded import ShardedEngine
from repro.core.engines.vectorized import VectorEngine

#: Name → class registry, shared by the CLI and the differential harness.
ENGINE_REGISTRY: dict[str, type[Engine]] = {
    "naive": NaiveEngine,
    "hash": HashJoinEngine,
    "fast": FastEngine,
    "vector": VectorEngine,
    "sharded": ShardedEngine,
}

__all__ = [
    "ENGINE_REGISTRY",
    "Engine",
    "FastEngine",
    "HashJoinEngine",
    "NaiveEngine",
    "PlanEngine",
    "ShardedEngine",
    "TripleSet",
    "VectorEngine",
]
