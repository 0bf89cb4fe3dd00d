"""Run the tests against the checkout's ``src/``, installed or not.

``src`` goes first on ``sys.path`` for in-process imports and on
``PYTHONPATH`` for the CLI tests, which start ``python -m maternbox.cli``.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
