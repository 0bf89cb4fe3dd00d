"""The block pool: a function mapped over blocks on one thread per CPU, in order.

Every pooled computation in the package goes through ``_map_blocks``: the
sampler's draw blocks, the mode-table blocks (in d = 1 each with its
partial modal Gram), the d >= 2 modal weight row blocks, the Robin root
blocks, the folded Gram's row runs (each from image distances through the
kernel to exact row sums) and the kernel's point blocks.  Each block is
computed exactly as it would be in the caller, so a result does not depend
on the worker count.  A block reaches other layers through their private
functions only (``matern._unit_matern``, ``specfun._log_bessel_k``).  This
module imports nothing from the package, so every layer may use it.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

# (workers, executor) of _map_blocks: one thread per CPU the process may run
# on, made on first use and dropped in a forked child, whose copy of the
# pool has no threads
_pool = None
_pool_lock = threading.Lock()
# marks the threads that run blocks, so a block that maps blocks runs them itself
_in_block = threading.local()


def _drop_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _block_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity mask on this platform
                workers = os.cpu_count() or 1
            _pool = (workers, ThreadPoolExecutor(workers, "maternbox") if workers > 1 else None)
        return _pool


def _run_block(fn, block):
    _in_block.active = True
    return fn(block)


def _map_blocks(fn, blocks):
    """Yield fn(b) for each b of the sequence ``blocks``, in order.

    The calls run on the module's thread pool, at most as many beyond the
    one being consumed as the pool has workers, so memory stays bounded as
    in a serial stream; with one worker or one block they run in the
    caller, and so they do when the caller is itself a block on the pool,
    which would otherwise wait on its own pool.  ``fn`` must not call a name
    in a layer module's ``__all__`` (bench/spans.py keeps one span stack,
    which is not thread-safe).
    """
    workers, pool = _block_pool()
    if workers < 2 or len(blocks) < 2 or getattr(_in_block, "active", False):
        yield from map(fn, blocks)
        return
    todo = iter(blocks)
    pending = deque(pool.submit(_run_block, fn, b) for b in islice(todo, workers))
    try:
        while pending:
            done = pending.popleft()
            pending.extend(pool.submit(_run_block, fn, b) for b in islice(todo, 1))
            yield done.result()
    finally:  # an abandoned or failed stream leaves no work queued
        for future in pending:
            future.cancel()
