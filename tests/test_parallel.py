import json
import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from gradrep import data, ops, parallel
from gradrep.autodiff import grad_enabled, no_grad
from gradrep.data import augment_draws, augment_images, gen_synthetic, iter_batches
from gradrep.equivlab import convert_model, verify_csla_gr
from gradrep.errors import UsageError
from gradrep.models import CslaBlockSpec, ModelSpec, build_repvgg, build_target
from gradrep.optim import OptimizerConfig
from gradrep.quantize import model_accuracy, ptq_model, quantize_weights_only
from gradrep.rng import Rng
from gradrep.train import evaluate

from helpers import interior_nodes

SPEC = ModelSpec(4, ((1, 4), (2, 8)), 3, 8)
# 300 samples in evaluation batches of 128: three batches, so the last group
# of two workers is a lone, short batch
N = 300


def trained_like(model, seed):
    """Give every BN non-trivial running statistics, so the logits (and the
    accuracies) depend on every layer."""
    stream = np.random.default_rng(seed)
    for name, arr in model.named_buffers():
        if name.endswith("running_mean"):
            arr += 0.1 * stream.normal(size=arr.shape)
        elif name.endswith("running_var"):
            arr *= stream.uniform(0.5, 2.0, size=arr.shape)
    return model


@pytest.fixture
def workers(monkeypatch):
    def set_workers(n):
        monkeypatch.setattr(parallel, "WORKERS", n)
    return set_workers


class TestParallelMap:
    def test_results_in_item_order_and_the_caller_takes_each_groups_first(self, workers):
        workers(2)
        ran_on = {}

        def fn(item):
            ran_on[item] = threading.get_ident()
            return item * item

        assert parallel.parallel_map(fn, range(5)) == [0, 1, 4, 9, 16]
        me = threading.get_ident()
        assert [ran_on[i] == me for i in range(5)] == [True, False, True, False, True]

    def test_one_worker_is_a_plain_loop(self, workers):
        workers(1)
        threads = threading.active_count()
        ran_on = set()

        def fn(item):
            ran_on.add(threading.get_ident())
            return -item

        assert parallel.parallel_map(fn, range(4)) == [0, -1, -2, -3]
        assert ran_on == {threading.get_ident()}
        assert threading.active_count() == threads

    @pytest.mark.parametrize("bad", [0, 1], ids=["caller", "pool"])
    def test_exception_reaches_the_caller_and_the_pool_still_works(self, workers, bad):
        workers(2)

        def fn(item):
            if item == bad:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match=f"item {bad}"):
            parallel.parallel_map(fn, range(4))
        assert parallel.parallel_map(lambda i: i + 1, range(4)) == [1, 2, 3, 4]

    @pytest.mark.parametrize("run", [
        parallel.parallel_map, lambda fn, items: list(parallel.prefetch(fn, items))],
        ids=["parallel_map", "prefetch"])
    def test_pool_items_keep_the_callers_errstate(self, workers, run):
        # a pool thread starts from numpy's default error state, whose overflow
        # warning is an error under this suite's warning filters
        workers(2)
        with np.errstate(over="ignore"):
            assert run(lambda x: np.float64(1e308) * x, [10.0] * 3) == [np.inf] * 3

    def test_a_call_inside_an_item_runs_as_a_plain_loop(self):
        # with two workers the pool has one thread; a nested call that used
        # the pool would wait on itself. A hung pool thread would also hang
        # the interpreter's exit, so the call runs in a child process, which
        # is killed if it outlives the timeout.
        child = textwrap.dedent("""
            import json, threading
            from gradrep import parallel
            parallel.WORKERS = 2

            def outer(item):
                return parallel.parallel_map(
                    lambda j: (item, j, threading.get_ident()), range(3))

            rows = parallel.parallel_map(outer, range(2))
            after = parallel.parallel_map(lambda i: threading.get_ident(), range(2))
            print(json.dumps({"rows": rows, "after": after,
                              "me": threading.get_ident()}))
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(parallel.__file__))))
        try:
            proc = subprocess.run([sys.executable, "-c", child], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("a nested parallel_map hung")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        rows = out["rows"]
        assert [[(i, j) for i, j, _ in row] for row in rows] == [
            [(i, j) for j in range(3)] for i in range(2)]
        # each inner loop ran on the one thread that ran its item, and the
        # two items ran on two threads
        assert [len({t for *_, t in row}) for row in rows] == [1, 1]
        assert rows[0][0][2] == out["me"] != rows[1][0][2]
        # the caller's own items still go to the pool afterwards
        assert out["after"][0] == out["me"] != out["after"][1]

    def test_cpu_count_fallback_without_affinity(self, monkeypatch):
        # a stand-in os module; nothing here starts a thread
        monkeypatch.setattr(parallel, "os", SimpleNamespace(cpu_count=lambda: 3))
        assert parallel.usable_cpus() == 3
        monkeypatch.setattr(parallel, "os", SimpleNamespace(cpu_count=lambda: None))
        assert parallel.usable_cpus() == 1
        monkeypatch.setattr(parallel, "os", SimpleNamespace(
            sched_getaffinity=lambda pid: {5}, cpu_count=lambda: 64))
        assert parallel.usable_cpus() == 1


class TestWorkerCountInvariance:
    def test_accuracies_and_scales_byte_equal_for_one_and_two_workers(self, workers):
        train_set = gen_synthetic(N, 8, 3, seed=4)
        test_set = gen_synthetic(N, 8, 3, seed=5)
        model = trained_like(build_repvgg(SPEC, rng=Rng(6)), 7)
        fused = convert_model(model)
        calib = train_set.normalized()
        results = []
        for n in (1, 2):
            workers(n)
            quantized = ptq_model(fused, calib)
            accs = [model_accuracy(m, test_set)
                    for m in (fused, quantized, quantize_weights_only(fused))]
            accs.append(evaluate(model, test_set))
            results.append((np.array(accs).tobytes(),
                            np.array(quantized.act_scales).tobytes(),
                            np.array(quantized.input_scale).tobytes()))
        assert results[0] == results[1]

    def test_accuracy_is_the_share_of_argmax_hits(self, workers):
        workers(2)
        handle = gen_synthetic(N, 8, 3, seed=8)
        fused = convert_model(trained_like(build_target(SPEC, rng=Rng(9)), 10))
        want = np.mean(np.argmax(fused.forward(handle.normalized()), axis=1)
                       == handle.labels)
        assert model_accuracy(fused, handle) == want

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_raise(self, workers, n, bad):
        # a NaN row's argmax is its first class, which would count as an answer
        workers(n)
        handle = gen_synthetic(N, 8, 3, seed=8)
        with pytest.raises(UsageError, match="non-finite logits in samples 0:128"):
            parallel.accuracy(lambda x: np.full((len(x), 3), bad), handle)

    def test_calibration_maxima_over_all_batches(self, workers):
        workers(2)
        calib = gen_synthetic(N, 8, 3, seed=11).normalized()
        fused = convert_model(trained_like(build_target(SPEC, rng=Rng(12)), 13))
        quantized = ptq_model(fused, calib)
        acts = list(fused.features(calib))
        assert quantized.input_scale == np.abs(calib).max() / 127.0
        assert quantized.act_scales == [np.abs(a).max() / 127.0 for a in acts]


class TestGradModePerThread:
    def test_no_grad_in_one_thread_leaves_another_on(self):
        entered, release, seen = threading.Event(), threading.Event(), []

        def other():
            with no_grad():
                seen.append(grad_enabled())
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert entered.wait(10)
            assert grad_enabled()
        finally:
            release.set()
            thread.join()
        assert seen == [False] and grad_enabled()

    def test_a_new_thread_starts_with_grad_on(self):
        seen = []
        with no_grad():
            thread = threading.Thread(target=lambda: seen.append(grad_enabled()))
            thread.start()
            thread.join()
            assert not grad_enabled()
        assert seen == [True] and grad_enabled()

    def test_training_records_its_tape_after_a_two_worker_evaluate(self, workers):
        workers(2)
        handle = gen_synthetic(N, 8, 3, seed=14)
        model = build_target(SPEC, rng=Rng(15))
        evaluate(model, handle)
        assert grad_enabled()
        model.zero_grad()
        loss = ops.cross_entropy(model.forward(handle.normalized(slice(0, 8)),
                                               training=True), handle.labels[:8])
        assert len(interior_nodes(loss)) > 1
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())


def serial_batches(handle, batch_size, rng, augment, drop_last):
    """The serial loop iter_batches pipelines: shuffle, then per batch
    normalize and augment from the same stream."""
    n = len(handle)
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if drop_last and len(idx) < batch_size:
            return
        x = handle.normalized(idx)
        if augment:
            x = augment_images(x, augment_draws(rng, len(idx)))
        yield x, handle.labels[idx]


def cli_block(c=8, seed=3):
    """verify-equivalence's default block: 3x3 and 1x1 branches, identity."""
    draws = Rng(seed).uniform(2 * c)
    return CslaBlockSpec(c, c, 1, ((3, 0.4 + draws[:c]), (1, 0.4 + draws[c:])), True)


def strided_block():
    rng = np.random.default_rng(3)
    return CslaBlockSpec(4, 8, 2, ((3, tuple(rng.uniform(0.5, 1.5, 8))),
                                   (1, tuple(rng.uniform(0.5, 1.5, 8)))), False)


LOCKSTEP_SGD = OptimizerConfig(base_lr=0.01, momentum=0.9, weight_decay=4e-5,
                               schedule="constant", warmup_epochs=0, total_epochs=1,
                               label_smoothing=0.0, batch_size=4)


class TestPrefetch:
    def test_results_in_order_computed_off_the_calling_thread(self, workers):
        workers(2)
        ran_on = set()

        def fn(item):
            ran_on.add(threading.get_ident())
            return item * 10

        assert list(parallel.prefetch(fn, range(5))) == [0, 10, 20, 30, 40]
        assert threading.get_ident() not in ran_on

    def test_jobs_run_one_at_a_time_in_item_order(self, workers):
        workers(2)
        log = []

        def fn(item):
            log.append(("start", item))
            time.sleep(0.01)
            log.append(("end", item))
            return item

        def items():
            for i in range(4):
                log.append(("take", i))
                yield i

        assert list(parallel.prefetch(fn, items())) == [0, 1, 2, 3]
        want = []
        for i in range(4):
            want += [("take", i), ("start", i), ("end", i)]
        assert log == want

    def test_an_early_close_waits_for_the_job_in_flight(self, workers):
        workers(2)
        done = []

        def fn(item):
            time.sleep(0.05)
            done.append(item)
            return item

        for first in parallel.prefetch(fn, range(5)):
            break
        # the second item was in flight at the break; nothing runs after it
        assert first == 0 and done == [0, 1]
        time.sleep(0.1)
        assert done == [0, 1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_an_exception_in_a_job_reaches_the_consumer(self, workers, n):
        workers(n)

        def fn(item):
            if item == 2:
                raise ValueError(f"item {item}")
            return item

        got = []
        with pytest.raises(ValueError, match="item 2"):
            for item in parallel.prefetch(fn, range(5)):
                got.append(item)
        assert got == [0, 1]
        assert list(parallel.prefetch(lambda i: -i, range(3))) == [0, -1, -2]

    def test_one_worker_is_a_plain_loop(self, workers):
        workers(1)
        threads = threading.active_count()
        ran_on = set()

        def fn(item):
            ran_on.add(threading.get_ident())
            return item

        assert list(parallel.prefetch(fn, range(4))) == [0, 1, 2, 3]
        assert ran_on == {threading.get_ident()}
        assert threading.active_count() == threads

    def test_inside_a_parallel_map_item_it_is_a_plain_loop(self, workers):
        workers(2)

        def outer(item):
            return [(i, threading.get_ident())
                    for i in parallel.prefetch(lambda j: j, range(3))]

        rows = parallel.parallel_map(outer, range(2))
        assert [[i for i, _ in row] for row in rows] == [[0, 1, 2]] * 2
        assert all(t == row[0][1] for row in rows for _, t in row)


class TestInputPipeline:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("augment", [False, True], ids=["plain", "augment"])
    @pytest.mark.parametrize("drop_last", [False, True], ids=["keep", "drop"])
    def test_batches_and_stream_equal_the_serial_loop(self, workers, n_workers,
                                                      augment, drop_last):
        # 100 samples in batches of 40: each full batch fills in chunks of
        # 16, 16 and 8, and the last batch is short
        handle = gen_synthetic(100, 8, 3, seed=21)
        want_rng, got_rng = Rng(22), Rng(22)
        want = list(serial_batches(handle, 40, want_rng, augment, drop_last))
        workers(n_workers)
        got = list(iter_batches(handle, 40, rng=got_rng, augment=augment,
                                drop_last=drop_last))
        assert len(got) == len(want) == (2 if drop_last else 3)
        for (gx, gl), (wx, wl) in zip(got, want):
            assert gx.dtype == wx.dtype and gx.shape == wx.shape
            assert gx.tobytes() == wx.tobytes()
            assert gl.tobytes() == wl.tobytes()
        assert got_rng.get_state() == want_rng.get_state()
        arrays = [x for x, _ in got]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    def test_batches_hold_under_fast_thread_switching(self, workers):
        # more workers than cores and a thread switch every microsecond: a
        # job that overlapped the caller's draws would change the batches or
        # the stream's end state
        handle = gen_synthetic(200, 8, 3, seed=29)
        want_rng, got_rng = Rng(30), Rng(30)
        want = list(serial_batches(handle, 24, want_rng, True, False))
        workers(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(iter_batches(handle, 24, rng=got_rng, augment=True))
        finally:
            sys.setswitchinterval(interval)
        assert [(x.tobytes(), lab.tobytes()) for x, lab in got] == [
            (x.tobytes(), lab.tobytes()) for x, lab in want]
        assert got_rng.get_state() == want_rng.get_state()

    @pytest.mark.parametrize("block,hw,post_bn", [(cli_block(), 16, False),
                                                  (strided_block(), 12, True)],
                             ids=["cli-block", "strided-post-bn"])
    def test_lockstep_reports_equal_for_one_and_two_workers(self, workers, block,
                                                            hw, post_bn):
        reports = []
        for n in (1, 2):
            workers(n)
            report = verify_csla_gr(block, 20, LOCKSTEP_SGD, seed=9, hw=hw,
                                    post_bn=post_bn)
            reports.append((np.array(report.output_divergence).tobytes(),
                            np.array(report.kernel_divergence).tobytes(),
                            report.config))
        assert reports[0] == reports[1]
        assert len(np.frombuffer(reports[0][0])) == 20

    def test_the_worker_fills_through_the_public_names(self, workers, monkeypatch):
        # wrappers of normalized and augment_images see every chunk the
        # worker fills
        workers(2)
        calls = []
        for owner, name in ((data, "augment_images"),
                            (data.DatasetHandle, "normalized")):
            orig = getattr(owner, name)

            def wrapped(*args, _orig=orig, _name=name):
                calls.append((_name, threading.get_ident()))
                return _orig(*args)

            monkeypatch.setattr(owner, name, wrapped)
        handle = gen_synthetic(64, 8, 3, seed=23)
        batches = list(iter_batches(handle, 32, rng=Rng(24), augment=True))
        assert len(batches) == 2
        assert sorted(n for n, _ in calls) == ["augment_images"] * 4 + ["normalized"] * 4
        assert threading.get_ident() not in {t for _, t in calls}

    def test_an_exception_in_a_fill_reaches_the_consumer(self, workers, monkeypatch):
        workers(2)
        orig = data.augment_images
        calls = []

        def failing(x, draws):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("fill failed")
            return orig(x, draws)

        monkeypatch.setattr(data, "augment_images", failing)
        handle = gen_synthetic(64, 8, 3, seed=23)
        got = []
        with pytest.raises(ValueError, match="fill failed"):
            for x, _ in iter_batches(handle, 16, rng=Rng(24), augment=True):
                got.append(x)
        assert len(got) == 2

    def test_a_break_leaves_the_stream_one_batch_on(self, workers):
        workers(2)
        handle = gen_synthetic(64, 8, 3, seed=25)
        rng = Rng(26)
        for _ in iter_batches(handle, 16, rng=rng, augment=True):
            break
        # the permutation, then the draws of the first two batches
        want = Rng(26)
        want.permutation(64)
        for _ in range(2):
            data.augment_draws(want, 16)
        assert rng.get_state() == want.get_state()

    def test_one_worker_starts_no_thread(self, workers, monkeypatch):
        workers(1)
        threads = threading.active_count()
        ran_on = set()
        orig = data.augment_images

        def recording(x, draws):
            ran_on.add(threading.get_ident())
            return orig(x, draws)

        monkeypatch.setattr(data, "augment_images", recording)
        handle = gen_synthetic(64, 8, 3, seed=27)
        assert len(list(iter_batches(handle, 16, rng=Rng(28), augment=True))) == 4
        verify_csla_gr(cli_block(), 5, LOCKSTEP_SGD, seed=1, hw=8)
        assert ran_on == {threading.get_ident()}
        assert threading.active_count() == threads


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
class TestHeapFloor:
    # a step's pattern in small, after a pass of iter_batches: one 3 MB
    # block freed first, then rounds that allocate 10 MB in 1 MB arrays and
    # free them. Left to glibc's thresholds the heap top is trimmed after
    # each round and faulted in again.
    CHILD = textwrap.dedent("""
        import resource, sys
        import numpy as np
        from gradrep.data import gen_synthetic, iter_batches
        if sys.argv[1] == "batches":
            list(iter_batches(gen_synthetic(8, 8, 2, seed=0), 4))
        block = np.ones(3 << 17)
        del block
        faults = []
        for _ in range(5):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            arrays = [np.ones(1 << 17) for _ in range(10)]
            del arrays
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        print(sum(faults[1:]))
    """)

    def faults(self, arg):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(parallel.__file__))))
        proc = subprocess.run([sys.executable, "-c", self.CHILD, arg], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_iter_batches_keeps_the_heap_a_step_frees(self):
        # a round touches 2560 pages; the control shows that rounds trim
        assert self.faults("none") > 4 * 1000
        assert self.faults("batches") < 4 * 100
