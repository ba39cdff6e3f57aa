"""Evaluation engines for the Triple Algebra.

The engine and backend names below are plain data: the CLI offers them
as choices, and a session picks its backend's engine by them, without
importing an engine class.  A class is imported when it is first asked
for (:func:`engine_class`, or an attribute of this package).
"""

from repro import _lazy_exports

#: Engine name → the name of its class here: ``repro query --engine``
#: offers these names, and :data:`ENGINE_REGISTRY` maps them to classes.
ENGINE_CLASSES = {
    "naive": "NaiveEngine",
    "hash": "HashJoinEngine",
    "fast": "FastEngine",
    "vector": "VectorEngine",
    "sharded": "ShardedEngine",
}

#: Execution backend → the engine a session on it runs by default:
#: ``"set"`` executes plans tuple-at-a-time over Python sets,
#: ``"columnar"`` array-at-a-time over the store's packed numpy encoding,
#: ``"sharded"`` shard-wise over its k-way hash partition.
BACKEND_ENGINES = {"set": "fast", "columnar": "vector", "sharded": "sharded"}

#: The backends a session can run on (``repro serve --backend``).
BACKENDS = tuple(BACKEND_ENGINES)

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.engines.base": "Engine PlanEngine",
        "repro.core.engines.hashjoin": "FastEngine HashJoinEngine",
        "repro.core.engines.naive": "NaiveEngine",
        "repro.core.engines.registry": "ENGINE_REGISTRY",
        "repro.core.engines.sharded": "ShardedEngine",
        "repro.core.engines.vectorized": "VectorEngine",
    },
)


def engine_class(name: str) -> type:
    """The engine class named ``name`` in :data:`ENGINE_CLASSES`,
    imported now."""
    return __getattr__(ENGINE_CLASSES[name])
