"""Forward-only batch loops, synthetic data and training input on every
usable CPU.

:func:`parallel_map` runs the lab's evaluation and calibration batches, and
the chunks of a synthetic pool (:func:`gradrep.data.gen_synthetic`), on one
thread per usable CPU; numpy releases the interpreter lock inside its
kernels, so the threads compute at once. Each item's result depends on that
item alone and the results come back in item order, so whatever a caller
reduces from them is the same for any worker count.

:func:`prefetch` builds training input one item ahead: the next batch of
:func:`gradrep.data.iter_batches`, or the next input and target of the
lockstep harness, is computed on a pool thread while the caller trains on the
current one. The jobs run one at a time and in order, so a stream they draw
from is consumed in the serial order. Forward, backward and the optimizer
step stay on the calling thread.

:func:`accuracy` is the one accuracy loop: it counts correct answers per
contiguous batch of :data:`EVAL_BATCH` samples and sums the counts. The batch
size, not the worker count, sets the partition, so accuracies do not depend
on the machine's CPU count.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading

import numpy as np

from .errors import UsageError

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
#: per thread: ``busy`` is true while the thread runs a parallel_map item or
#: a prefetch job
_state = threading.local()
#: what prefetch's item source returns once it is exhausted
_END = object()


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


def _inline() -> bool:
    """Whether :func:`parallel_map` and :func:`prefetch` run as plain loops
    on the calling thread: with one worker, and inside an item of either."""
    return WORKERS <= 1 or getattr(_state, "busy", False)


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
    if _inline() or len(items) <= 1:
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


def prefetch(fn, items):
    """An iterator over ``fn(item)`` for each item, in order, that computes
    the next result on a pool thread while the caller works on the current
    one. At most one job is in flight, and the next item is taken from
    ``items`` only after the previous job has finished, so the jobs run one
    after another exactly as a plain loop would run them. An exception from
    a job is raised from the ``next()`` that asks for its result. Closing the
    iterator early waits for the job in flight, whose result is dropped: a
    caller that stops early may find a stream the jobs draw from one item
    further on than the items it took. :data:`WORKERS` is read at this call;
    with one worker, and inside an item of :func:`parallel_map` or of
    another prefetch, the iterator is a plain loop and starts no thread."""
    if _inline():
        return map(fn, items)
    return _one_ahead(_pool(WORKERS - 1), fn, iter(items))


def _one_ahead(pool, fn, items):
    def submit():
        item = next(items, _END)
        return None if item is _END else pool.submit(_run_item, fn, item)

    job = submit()
    try:
        while job is not None:
            result = job.result()
            job = submit()
            yield result
    finally:
        if job is not None:
            concurrent.futures.wait([job])


def accuracy(logits_fn, handle) -> float:
    """Share of ``handle``'s samples whose largest logit is at their label;
    ``logits_fn`` maps a batch of normalized images to an (n, classes)
    array. A batch with a non-finite logit raises :class:`UsageError`."""
    n = len(handle)

    def correct(start):
        stop = min(start + EVAL_BATCH, n)
        logits = logits_fn(handle.normalized(slice(start, stop)))
        if not np.isfinite(logits).all():
            raise UsageError(f"non-finite logits in samples {start}:{stop}")
        return int((np.argmax(logits, axis=1) == handle.labels[start:stop]).sum())

    return sum(parallel_map(correct, range(0, n, EVAL_BATCH))) / n
