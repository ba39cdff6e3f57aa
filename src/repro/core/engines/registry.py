"""Name → class registry of every engine, shared by the CLI and the
differential harness (:data:`repro.core.engines.ENGINE_CLASSES` holds
the names)."""

from repro.core.engines import ENGINE_CLASSES, engine_class
from repro.core.engines.base import Engine

ENGINE_REGISTRY: dict[str, type[Engine]] = {name: engine_class(name) for name in ENGINE_CLASSES}
