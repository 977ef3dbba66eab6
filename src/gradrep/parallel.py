"""Forward-only batch loops and synthetic data on every usable CPU.

:func:`parallel_map` runs the lab's evaluation and calibration batches, and
the chunks of a synthetic pool (:func:`gradrep.data.gen_synthetic`), on one
thread per usable CPU; numpy releases the interpreter lock inside its
kernels, so the threads compute at once. Training steps stay on the calling
thread. Each item's result depends on that item alone and the results come
back in item order, so whatever a caller reduces from them is the same for
any worker count.

:func:`accuracy` is the one accuracy loop: it counts correct answers per
contiguous batch of a fixed size and sums the counts. The batch size, not the
worker count, sets the partition, so accuracies do not depend on the
machine's CPU count.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading

import numpy as np

#: samples per evaluation batch. Every worker holds one batch's activations
#: in flight, so two workers at 128 hold as much as one worker at 256.
EVAL_BATCH = 128


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: items in flight at once: the calling thread plus WORKERS - 1 pool threads
WORKERS = usable_cpus()

_pools: dict[int, concurrent.futures.ThreadPoolExecutor] = {}
#: per thread: ``busy`` is true while the thread runs a parallel_map item
_state = threading.local()


def _pool(threads: int) -> concurrent.futures.ThreadPoolExecutor:
    if threads not in _pools:
        _pools[threads] = concurrent.futures.ThreadPoolExecutor(
            threads, thread_name_prefix="gradrep-worker")
    return _pools[threads]


def _run_item(fn, item):
    busy = getattr(_state, "busy", False)
    _state.busy = True
    try:
        return fn(item)
    finally:
        _state.busy = busy


def parallel_map(fn, items) -> list:
    """``[fn(item) for item in items]``, computed in groups of
    :data:`WORKERS` items: the calling thread runs the first item of each
    group (reusing its own allocator arena) and a pool of ``WORKERS - 1``
    threads, built on first use, runs the rest. With one worker, and inside
    an item of another parallel_map (whose pool may be busy running that
    very item), it is a plain loop and starts no thread. An exception from
    any item reaches the caller once the whole group has finished."""
    items = list(items)
    workers = WORKERS
    if workers <= 1 or len(items) <= 1 or getattr(_state, "busy", False):
        return [fn(item) for item in items]
    pool = _pool(workers - 1)
    results = []
    for start in range(0, len(items), workers):
        group = items[start:start + workers]
        futures = [pool.submit(_run_item, fn, item) for item in group[1:]]
        try:
            results.append(_run_item(fn, group[0]))
        finally:
            concurrent.futures.wait(futures)
        results.extend(f.result() for f in futures)
    return results


def accuracy(logits_fn, handle, batch_size: int = EVAL_BATCH) -> float:
    """Share of ``handle``'s samples whose largest logit is at their label;
    ``logits_fn`` maps a batch of normalized images to an (n, classes)
    array."""
    n = len(handle)

    def correct(start):
        stop = min(start + batch_size, n)
        logits = logits_fn(handle.normalized(slice(start, stop)))
        return int((np.argmax(logits, axis=1) == handle.labels[start:stop]).sum())

    return sum(parallel_map(correct, range(0, n, batch_size))) / n
