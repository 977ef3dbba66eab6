import os
import sys
import tracemalloc

import numpy as np
import pytest

from gradrep import ops, parallel
from gradrep.autodiff import Parameter, Tensor
from gradrep.data import (
    CIFAR10_RECORD,
    NORMALIZATION,
    _SYNTH_CHUNK,
    _SYNTH_RUNS,
    DatasetHandle,
    augment_images,
    gen_synthetic,
    iter_batches,
    load_cifar,
    load_cifar_file,
    write_cifar10,
)
from gradrep.errors import ConfigError, DataFormatError
from gradrep.rng import Rng


def make_cifar10_bytes(records):
    """records: list of (label, fill_fn(channel, row, col) -> byte value)."""
    out = bytearray()
    for label, fill in records:
        out.append(label)
        for ch in range(3):
            for r in range(32):
                for c in range(32):
                    out.append(fill(ch, r, c) & 0xFF)
    return bytes(out)


class TestCifarParsing:
    def test_two_record_file_exact_bytes(self, tmp_path):
        recs = [
            (3, lambda ch, r, c: ch * 10 + r),
            (9, lambda ch, r, c: 255 - c),
        ]
        path = tmp_path / "batch.bin"
        path.write_bytes(make_cifar10_bytes(recs))
        images, labels = load_cifar_file(str(path), "cifar10")
        assert labels.tolist() == [3, 9]
        assert images.shape == (2, 3, 32, 32)
        assert images[0, 2, 5, 31] == 2 * 10 + 5
        assert images[0, 0, 0, 0] == 0
        assert images[1, 1, 7, 4] == 255 - 4

    def test_truncated_file_names_lengths(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (CIFAR10_RECORD + 17))
        with pytest.raises(DataFormatError) as err:
            load_cifar_file(str(path), "cifar10")
        msg = str(err.value)
        assert str(CIFAR10_RECORD + 17) in msg and str(CIFAR10_RECORD) in msg

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_cifar_file(str(path), "cifar10")

    def test_label_out_of_range_names_offset(self, tmp_path):
        raw = bytearray(make_cifar10_bytes([(1, lambda *_: 0), (1, lambda *_: 0)]))
        raw[CIFAR10_RECORD] = 12  # second record's label byte
        path = tmp_path / "bad_label.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError) as err:
            load_cifar_file(str(path), "cifar10")
        assert "record 1" in str(err.value) and str(CIFAR10_RECORD) in str(err.value)

    def test_cifar100_uses_fine_label(self, tmp_path):
        out = bytearray()
        out.append(7)  # coarse
        out.append(42)  # fine
        out.extend(bytes(range(256)) * 12)  # 3072 pixel bytes
        path = tmp_path / "c100.bin"
        path.write_bytes(bytes(out))
        images, labels = load_cifar_file(str(path), "cifar100")
        assert labels.tolist() == [42]
        assert images[0, 0, 0, 5] == 5

    def test_directory_aggregation(self, tmp_path):
        for i in (1, 2):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(
                make_cifar10_bytes([(i, lambda *_: i)] * 3)
            )
        handle = load_cifar(str(tmp_path), "cifar10", split="train")
        assert len(handle) == 6
        assert handle.labels.tolist() == [1, 1, 1, 2, 2, 2]

    def test_missing_directory_files(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_cifar(str(tmp_path), "cifar10", split="test")

    @pytest.mark.skipif("GRADREP_CIFAR10" not in os.environ,
                        reason="real CIFAR-10 binaries not mounted")
    def test_real_train_split_has_50000_records(self):
        handle = load_cifar(os.environ["GRADREP_CIFAR10"], "cifar10", split="train")
        assert len(handle) == 50000

    def test_write_then_load_roundtrip_bit_exact(self, tmp_path):
        ds = gen_synthetic(20, 32, 10, seed=5)
        path = tmp_path / "synthetic_as_cifar.bin"
        write_cifar10(ds, str(path))
        back = load_cifar(str(path), "cifar10")
        assert back.images.tobytes() == ds.images.tobytes()
        assert back.labels.tolist() == ds.labels.tolist()

    def test_write_rejects_wrong_resolution(self, tmp_path):
        ds = gen_synthetic(4, 16, 10, seed=0)
        with pytest.raises(ConfigError):
            write_cifar10(ds, str(tmp_path / "x.bin"))


def gen_synthetic_reference(n, resolution, classes, seed, *, jitter_frac=0.125,
                            noise=0.18, radius_spread=0.3):
    """The generator as one whole noise draw and a per-sample loop: the
    reference the chunked gen_synthetic must match byte for byte."""
    rng = Rng(seed)
    angles = 2.0 * np.pi * np.arange(classes) / classes
    radius = resolution / 3.5
    centers = np.stack([
        resolution / 2 + radius * np.cos(angles),
        resolution / 2 + radius * np.sin(angles),
    ], axis=1)
    colors = 0.35 + 0.5 * rng.uniform(classes * 3).reshape(classes, 3)
    labels = rng.integers_below(classes, n)
    yy, xx = np.meshgrid(np.arange(resolution), np.arange(resolution), indexing="ij")
    base_sigma = resolution / 6.0
    jitter = rng.gaussian((n, 2)) * (resolution * jitter_frac)
    sigmas = base_sigma * (1.0 + radius_spread * (rng.uniform(n) - 0.5) * 2.0)
    pixel_noise = rng.gaussian((n, 3, resolution, resolution)) * noise
    images = np.empty((n, 3, resolution, resolution), dtype=np.uint8)
    for i in range(n):
        cy, cx = centers[labels[i]] + jitter[i]
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigmas[i] ** 2)))
        img = colors[labels[i]][:, None, None] * blob[None] + 0.25 + pixel_noise[i]
        images[i] = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    return images, labels


class TestSynthetic:
    # odd resolutions make 3*r*r odd, so a chunk of an odd number of samples
    # would split a Box-Muller pair; n covers one short chunk, an odd n that
    # is not a multiple of the chunk, and the benchmark's 6000 x 32x32; one,
    # two and three workers split the chunks into that many runs
    @pytest.mark.parametrize("n,resolution,classes,seed", [
        (5, 7, 3, 0),
        (_SYNTH_CHUNK // 2 + 1, 9, 4, 1),
        (2 * _SYNTH_CHUNK + 1, 33, 5, 2),
        (_SYNTH_CHUNK + 2, 8, 10, 3),
        (6000, 32, 10, 4),
    ])
    def test_matches_per_sample_reference(self, n, resolution, classes, seed,
                                          monkeypatch):
        assert _SYNTH_CHUNK % 2 == 0
        images, labels = gen_synthetic_reference(n, resolution, classes, seed)
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "WORKERS", workers)
            got = gen_synthetic(n, resolution, classes, seed)
            assert got.images.tobytes() == images.tobytes(), workers
            assert got.labels.tobytes() == labels.tobytes(), workers

    def test_traced_peak_memory_bounded(self, monkeypatch):
        # one whole float64 noise draw for 6000 x 3 x 32 x 32 alone is 147 MB;
        # a 16-sample chunk of it is 393 KB, and each worker needs a few such
        # buffers at a time on top of the arrays the generator returns
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "WORKERS", workers)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                handle = gen_synthetic(6000, 32, 10, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - handle.images.nbytes - handle.labels.nbytes <= 4 * 2**20, workers

    def test_bytes_hold_with_a_thread_switch_every_microsecond(self, monkeypatch):
        # the runs share the input arrays and write disjoint rows of one
        # output; frequent switches interleave them at fine grain
        n = 6 * _SYNTH_CHUNK + 5
        want = gen_synthetic_reference(n, 9, 4, 6)[0].tobytes()
        monkeypatch.setattr(parallel, "WORKERS", _SYNTH_RUNS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [gen_synthetic(n, 9, 4, 6).images.tobytes() for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 5

    @pytest.mark.parametrize("n", [_SYNTH_CHUNK - 1, 3 * _SYNTH_CHUNK + 1,
                                   20 * _SYNTH_CHUNK - 3])
    def test_runs_in_flight_capped_for_any_cpu_count(self, n, monkeypatch):
        # a stand-in parallel_map records the runs and starts no thread
        runs = []

        def plain_map(fn, items):
            runs.extend(list(run) for run in items)
            return [fn(item) for item in items]

        monkeypatch.setattr(parallel, "parallel_map", plain_map)
        monkeypatch.setattr(parallel, "WORKERS", 64)
        got = gen_synthetic(n, 9, 4, seed=5)
        chunks = list(range(0, n, _SYNTH_CHUNK))
        assert len(runs) == min(_SYNTH_RUNS, len(chunks))
        assert [start for run in runs for start in run] == chunks
        assert got.images.tobytes() == gen_synthetic_reference(n, 9, 4, 5)[0].tobytes()

    def test_same_seed_identical_bytes(self):
        a = gen_synthetic(32, 16, 10, seed=9)
        b = gen_synthetic(32, 16, 10, seed=9)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tolist() == b.labels.tolist()

    def test_different_seed_differs(self):
        a = gen_synthetic(32, 16, 10, seed=9)
        b = gen_synthetic(32, 16, 10, seed=10)
        assert a.images.tobytes() != b.images.tobytes()

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            gen_synthetic(0, 16, 10, seed=0)

    def test_linear_probe_beats_chance(self):
        # 10-class blobs must be separable: linear model, 5 epochs, > 50%.
        ds = gen_synthetic(512, 16, 10, seed=3)
        rng = Rng(0)
        d = 3 * 16 * 16
        w = Parameter(0.01 * rng.gaussian((10, d)), name="w")
        b = Parameter(np.zeros(10), name="b")
        order_rng = Rng(1)
        for _ in range(5):
            for idx in np.array_split(order_rng.permutation(len(ds)), 8):
                x = Tensor(ds.normalized(idx).reshape(len(idx), d))
                loss = ops.cross_entropy(ops.linear(x, w, b), ds.labels[idx])
                w.grad = None
                b.grad = None
                loss.backward()
                w.data -= 0.05 * w.grad
                b.data -= 0.05 * b.grad
        logits = ops.linear(Tensor(ds.normalized().reshape(len(ds), d)), w, b)
        acc = (np.argmax(logits.data, axis=1) == ds.labels).mean()
        assert acc > 0.5


class TestBatching:
    def test_normalization_formula(self):
        ds = gen_synthetic(4, 8, 2, seed=1)
        x = ds.normalized()
        mean, std = (np.asarray(v).reshape(1, 3, 1, 1) for v in NORMALIZATION["synthetic"])
        np.testing.assert_allclose(x * std + mean, ds.images / 255.0, atol=1e-12)

    @pytest.mark.parametrize("source", sorted(NORMALIZATION))
    def test_normalized_bytes_match_formula_for_every_pixel_value(self, source):
        # every channel holds each of the 256 values once, plus a reversed copy
        levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        images = np.stack([np.stack([levels] * 3), np.stack([levels[::-1]] * 3)])
        ds = DatasetHandle(source, images, np.zeros(2, dtype=np.int64), 10)
        mean = np.asarray(NORMALIZATION[source][0]).reshape(1, 3, 1, 1)
        std = np.asarray(NORMALIZATION[source][1]).reshape(1, 3, 1, 1)
        want = (images.astype(np.float64) / 255.0 - mean) / std
        got = ds.normalized()
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert ds.normalized([1]).tobytes() == want[1:].tobytes()

    def test_batches_cover_dataset_in_order_without_rng(self):
        ds = gen_synthetic(10, 8, 2, seed=1)
        labels = np.concatenate([lab for _, lab in iter_batches(ds, 4)])
        np.testing.assert_array_equal(labels, ds.labels)

    def test_shuffle_deterministic(self):
        ds = gen_synthetic(32, 8, 2, seed=1)

        def run():
            return np.concatenate(
                [lab for _, lab in iter_batches(ds, 8, rng=Rng(5))]
            )

        np.testing.assert_array_equal(run(), run())

    def test_drop_last(self):
        ds = gen_synthetic(10, 8, 2, seed=1)
        batches = list(iter_batches(ds, 4, drop_last=True))
        assert len(batches) == 2

    def test_augment_deterministic_and_shape(self):
        ds = gen_synthetic(8, 16, 2, seed=2)
        x = ds.normalized()
        a = augment_images(x, Rng(7))
        b = augment_images(x, Rng(7))
        assert a.shape == x.shape
        assert a.tobytes() == b.tobytes()

    def test_subset_bounds(self):
        ds = gen_synthetic(10, 8, 2, seed=1)
        assert len(ds.subset(4, offset=2)) == 4
        with pytest.raises(ConfigError):
            ds.subset(20)

    def test_handle_validation(self):
        with pytest.raises(DataFormatError):
            DatasetHandle("synthetic", np.zeros((0, 3, 8, 8), dtype=np.uint8),
                          np.zeros(0, dtype=np.int64), 10)
        with pytest.raises(DataFormatError):
            DatasetHandle("synthetic", np.zeros((2, 3, 8, 8), dtype=np.uint8),
                          np.zeros(3, dtype=np.int64), 10)
        with pytest.raises(DataFormatError):
            DatasetHandle("synthetic", np.zeros((2, 3, 8, 8)),
                          np.zeros(2, dtype=np.int64), 10)
