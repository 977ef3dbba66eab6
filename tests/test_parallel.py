import json
import os
import subprocess
import sys
import textwrap
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from gradrep import ops, parallel
from gradrep.autodiff import grad_enabled, no_grad
from gradrep.data import gen_synthetic
from gradrep.equivlab import convert_model
from gradrep.models import ModelSpec, build_repvgg, build_target
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
