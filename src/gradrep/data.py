"""Dataset ingestion: bit-exact CIFAR binary parsing, a seeded synthetic
generator, normalization, augmentation and batch iteration.

CIFAR binary layout (one record per image, no headers):

* CIFAR-10: 1 label byte then 3072 image bytes (1024 R, 1024 G, 1024 B, each
  plane row-major 32x32).
* CIFAR-100: 2 label bytes (coarse then fine; the fine label is used) then the
  same 3072 image bytes.

Pixel normalization is pinned per source (:data:`NORMALIZATION` holds the
constants) so that accuracies are comparable across runs and implementations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import ConfigError, DataFormatError, UsageError
from .rng import Rng

CIFAR_HW = 32
CIFAR10_RECORD = 1 + 3 * CIFAR_HW * CIFAR_HW
CIFAR100_RECORD = 2 + 3 * CIFAR_HW * CIFAR_HW

#: per-channel (mean, std) of pixel values scaled to [0, 1]
NORMALIZATION = {
    "cifar10": ((0.4914, 0.4822, 0.4465), (0.2470, 0.2435, 0.2616)),
    "cifar100": ((0.5071, 0.4865, 0.4409), (0.2673, 0.2564, 0.2762)),
    "synthetic": ((0.5, 0.5, 0.5), (0.25, 0.25, 0.25)),
}

#: samples per noise draw in gen_synthetic. It must stay even: then every
#: Box-Muller pair lies inside one chunk, which makes each chunk's offset in
#: the stream exact
_SYNTH_CHUNK = 16
#: most runs of chunks gen_synthetic draws at once, whatever the CPU count:
#: a run holds about 1 MB of float64 temporaries at 32x32, so three keep a
#: pool's temporaries under 4 MB
_SYNTH_RUNS = 3

#: zero padding around each image before augment_images crops it
_AUGMENT_PAD = 4
#: samples iter_batches normalizes and augments at a time: the float64
#: temporaries of one fill stay under 1.5 MB at 32x32, whatever the batch size
_FILL_CHUNK = 16
#: the least mmap threshold iter_batches leaves glibc with; the heap keeps up
#: to twice it free at its top
_HEAP_FLOOR = 8 << 20

CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]


@dataclass
class DatasetHandle:
    """In-memory dataset: uint8 images (n, 3, h, w) plus integer labels."""

    source: str
    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise DataFormatError(f"images must be (n, 3, h, w), got {self.images.shape}")
        if self.images.dtype != np.uint8:
            raise DataFormatError(f"images must be uint8, got {self.images.dtype}")
        if len(self.images) == 0:
            raise DataFormatError("dataset has no records")
        if len(self.labels) != len(self.images):
            raise DataFormatError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )

    def __len__(self):
        return len(self.images)

    @property
    def resolution(self) -> int:
        return self.images.shape[2]

    def normalized(self, idx=None) -> np.ndarray:
        """float64 images: (pixel/255 - mean) / std per channel, with the
        constants :data:`NORMALIZATION` holds for this source."""
        imgs = self.images if idx is None else self.images[idx]
        out = imgs.astype(np.float64)
        mean, std = (np.reshape(v, (3, 1, 1)) for v in NORMALIZATION[self.source])
        out /= 255.0
        out -= mean
        out /= std
        return out

    def subset(self, n: int, offset: int = 0) -> "DatasetHandle":
        if offset + n > len(self):
            raise ConfigError(f"subset [{offset}:{offset + n}] exceeds {len(self)} records")
        return DatasetHandle(self.source, self.images[offset:offset + n],
                             self.labels[offset:offset + n], self.num_classes)


# ---------------------------------------------------------------------------
# CIFAR binary parsing
# ---------------------------------------------------------------------------

def _parse_records(raw: bytes, record_size: int, label_offset: int,
                   num_classes: int, path: str):
    if len(raw) == 0:
        raise DataFormatError(f"{path}: empty file")
    if len(raw) % record_size != 0:
        raise DataFormatError(
            f"{path}: length {len(raw)} is not a multiple of the {record_size}-byte "
            f"record (remainder {len(raw) % record_size} at offset "
            f"{len(raw) - len(raw) % record_size})"
        )
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record_size)
    labels = arr[:, label_offset].astype(np.int64)
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        raise DataFormatError(
            f"{path}: record {bad[0]} has label {labels[bad[0]]} >= {num_classes} "
            f"(byte offset {bad[0] * record_size + label_offset})"
        )
    pixels = arr[:, label_offset + 1:].reshape(-1, 3, CIFAR_HW, CIFAR_HW)
    return pixels.copy(), labels


def load_cifar_file(path: str, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse one CIFAR binary file into (images, labels)."""
    if variant == "cifar10":
        record, label_offset, classes = CIFAR10_RECORD, 0, 10
    elif variant == "cifar100":
        record, label_offset, classes = CIFAR100_RECORD, 1, 100
    else:
        raise ConfigError(f"unknown CIFAR variant {variant!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_records(raw, record, label_offset, classes, path)


def load_cifar(path: str, variant: str = "cifar10", split: str = "train") -> DatasetHandle:
    """Load a CIFAR binary file or a directory holding the standard files.

    A cifar10 directory is read from CIFAR-10's canonical batch files if any of
    them exist; otherwise, and for cifar100, from ``{split}.bin`` (CIFAR-100's
    own names, and what ``gradrep gen-data`` writes).
    """
    classes = 10 if variant == "cifar10" else 100
    files = [path]
    if os.path.isdir(path):
        names = ((CIFAR10_TRAIN_FILES if split == "train" else CIFAR10_TEST_FILES)
                 if variant == "cifar10" else [])
        files = [f for f in (os.path.join(path, n) for n in names) if os.path.exists(f)]
        files = files or [os.path.join(path, f"{split}.bin")]
        if not os.path.exists(files[0]):
            raise DataFormatError(f"{path}: no {variant} {split} files found")
    images, labels = [], []
    for f in files:
        im, lab = load_cifar_file(f, variant)
        images.append(im)
        labels.append(lab)
    return DatasetHandle(variant, np.concatenate(images), np.concatenate(labels), classes)


def write_cifar10(handle: DatasetHandle, path: str) -> None:
    """Write a dataset out in the CIFAR-10 binary record layout."""
    if handle.resolution != CIFAR_HW:
        raise ConfigError(
            f"CIFAR-10 layout is fixed at 32x32, dataset is {handle.resolution}"
        )
    if handle.num_classes > 10:
        raise ConfigError(f"CIFAR-10 layout holds 10 classes, dataset has "
                          f"{handle.num_classes}")
    n = len(handle)
    out = np.empty((n, CIFAR10_RECORD), dtype=np.uint8)
    out[:, 0] = handle.labels.astype(np.uint8)
    out[:, 1:] = handle.images.reshape(n, -1)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(out.tobytes())


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def gen_synthetic(n: int, resolution: int, classes: int, seed: int, *,
                  jitter_frac: float = 0.125, noise: float = 0.18,
                  radius_spread: float = 0.3) -> DatasetHandle:
    """Class-structured Gaussian blobs, fully determined by the seed.

    Each class owns a blob position on a circle and a color; samples add
    position jitter, blob-size variation and pixel noise. The default knobs
    make desk-scale convnets work for their accuracy (tens of epochs of
    headroom) while a linear probe still clears chance comfortably. The
    pixel noise is drawn on up to :data:`_SYNTH_RUNS` workers
    (:mod:`gradrep.parallel`); the bytes do not depend on how many.
    """
    if n <= 0:
        raise ConfigError(f"need n > 0 synthetic samples, got {n}")
    if classes <= 1 or resolution < 4:
        raise ConfigError(f"need classes > 1 and resolution >= 4, got {classes}, {resolution}")
    rng = Rng(seed)
    # class templates: center angle and color
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
    images = np.empty((n, 3, resolution, resolution), dtype=np.uint8)
    chunk_draws = Rng.gaussian_draws(_SYNTH_CHUNK * 3 * resolution * resolution)

    def draw_chunk(run_rng, start):
        stop = min(start + _SYNTH_CHUNK, n)
        # drawn first: the draw's temporaries are gone before blob and img exist
        pixel_noise = run_rng.gaussian((stop - start, 3, resolution, resolution))
        pixel_noise *= noise
        lab = labels[start:stop]
        pos = centers[lab] + jitter[start:stop]
        cy = pos[:, 0, None, None]
        cx = pos[:, 1, None, None]
        sig = sigmas[start:stop, None, None]
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sig ** 2)))
        # color * blob + 0.25 + noise, evaluated left to right in one buffer
        img = colors[lab][:, :, None, None] * blob[:, None]
        img += 0.25
        img += pixel_noise
        img *= 255.0
        np.rint(img, out=img)
        images[start:stop] = np.clip(img, 0, 255, out=img)

    def draw_run(chunk_starts):
        # a run of chunks draws from its own copy of the stream, started
        # where the chunks before it, drawn in order, would have left it
        run_rng = rng.ahead(chunk_starts[0] // _SYNTH_CHUNK * chunk_draws)
        for start in chunk_starts:
            draw_chunk(run_rng, start)

    # only one chunk of float64 images per run is alive at a time; an even
    # chunk size keeps every Box-Muller pair inside one chunk, so the bytes
    # equal those of a single whole draw, whichever runs the chunks form
    starts = range(0, n, _SYNTH_CHUNK)
    runs = min(parallel.WORKERS, _SYNTH_RUNS, len(starts))
    parallel.parallel_map(draw_run, np.array_split(starts, runs))
    return DatasetHandle("synthetic", images, labels, classes)


# ---------------------------------------------------------------------------
# batching and augmentation
# ---------------------------------------------------------------------------

def augment_draws(rng: Rng, n: int) -> tuple:
    """The draws that augment ``n`` images, taken from ``rng`` in a fixed
    order: flips (p=0.5), then the crop offsets dy, then dx, each in
    [0, 2 * pad]."""
    flips = rng.uniform(n) < 0.5
    dy = rng.integers_below(2 * _AUGMENT_PAD + 1, n)
    dx = rng.integers_below(2 * _AUGMENT_PAD + 1, n)
    return flips, dy, dx


def augment_images(x: np.ndarray, draws) -> np.ndarray:
    """Horizontal flip plus pad-4 random crop on normalized images, by the
    (flips, dy, dx) arrays of :func:`augment_draws`, one entry per image:
    image i is the crop of the zero-padded image at (dy[i], dx[i]), mirrored
    where flips[i] is set."""
    n, c, h, w = x.shape
    pad = _AUGMENT_PAD
    flips, dy, dx = draws
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad:pad + h, pad:pad + w] = x
    out = np.empty_like(x)
    for i in range(n):
        crop = padded[i, :, dy[i]:dy[i] + h, dx[i]:dx[i] + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def iter_batches(handle: DatasetHandle, batch_size: int, rng: Rng | None = None,
                 augment: bool = False, drop_last: bool = False):
    """Yield (normalized images, labels); shuffled when an rng is given, and
    augmented from the same rng when ``augment`` is set. The stream is drawn
    in the serial order: the permutation, then each batch's flips, dy and
    dx.

    The calling thread draws each batch's indices and augmentation and
    allocates its array; :func:`gradrep.parallel.prefetch` fills the next
    batch, :data:`_FILL_CHUNK` samples at a time, while the caller trains on
    the current one. The batches are the same for any worker count. After a
    full pass the stream is where the serial loop leaves it; a caller that
    stops early may find it one batch's draws further on."""
    if augment and rng is None:
        raise UsageError("augmentation draws from the data stream, but no rng was given")
    n = len(handle)
    # glibc sets its mmap and trim thresholds from the largest mmapped block
    # freed so far (mallopt(3), M_MMAP_THRESHOLD). Left at the batch array,
    # the largest block a chunked fill frees, they let glibc trim the heap
    # top after each step for the next step to fault in again: about 45,000
    # faults per desk4 hyper-search epoch at batch 128. Freeing one block of
    # _HEAP_FLOOR bytes raises them above a step's swing.
    np.empty(_HEAP_FLOOR // 8)

    def batches():
        order = rng.permutation(n) if rng is not None else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if drop_last and len(idx) < batch_size:
                return
            draws = augment_draws(rng, len(idx)) if augment else None
            yield idx, draws, np.empty((len(idx),) + handle.images.shape[1:])

    def fill(batch):
        # through the public names, so that wrappers of them see every chunk
        idx, draws, out = batch
        for start in range(0, len(idx), _FILL_CHUNK):
            chunk = slice(start, start + _FILL_CHUNK)
            x = handle.normalized(idx[chunk])
            out[chunk] = augment_images(x, [d[chunk] for d in draws]) if augment else x
        return out, handle.labels[idx]

    return parallel.prefetch(fill, batches())
