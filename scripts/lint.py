#!/usr/bin/env python
"""Run ``repro lint`` on the repository this script lives in.

CI and pre-commit hooks can run it without installing the package;
every argument is passed on to ``repro lint``::

    python scripts/lint.py
    python scripts/lint.py --select ERR-MAP,ERR-ORDER
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["lint", "--root", _ROOT, *sys.argv[1:]]))
