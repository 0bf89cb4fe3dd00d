"""Run the tests against the checkout's ``src/``, installed or not.

``src`` goes first on ``sys.path`` for in-process imports and on
``PYTHONPATH`` for the CLI tests, which start ``python -m maternbox.cli``.
The ``block_pool`` fixture installs a block pool of a given worker count.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


class _CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def block_pool(monkeypatch):
    """Install a pool of the given worker count in place of the module's own."""
    from maternbox import _blocks

    made = []

    def install(workers):
        pool = _CountingPool(workers)
        made.append(pool)
        monkeypatch.setattr(_blocks, "_pool", (workers, pool))
        return pool

    yield install
    for pool in made:
        pool.shutdown(wait=False, cancel_futures=True)
