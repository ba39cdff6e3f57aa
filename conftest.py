"""Ensure the in-tree package is importable even without installation.

``pip install -e .`` needs the ``wheel`` package under the pinned
setuptools in some offline environments; adding ``src`` to ``sys.path``
here makes ``pytest tests/ benchmarks/`` work from a plain checkout
(``python setup.py develop`` also works).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))
