"""Triplestore data model (Definition 1) and its array representation."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.triplestore.columnar": "ColumnarStore",
        "repro.triplestore.io": "dump_path dumps load_path loads",
        "repro.triplestore.matrix": "MatrixStore",
        "repro.triplestore.model": "DEFAULT_RELATION Triplestore",
        "repro.triplestore.sharded": "ShardedColumnarStore",
        "repro.triplestore.stats": "DEFAULT_STATS",
    },
)
