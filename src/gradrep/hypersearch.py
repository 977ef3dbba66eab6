"""Hyper-search: train the trainable-scales model on a small dataset, harvest
the converged scale vectors, and persist them for the multiplier optimizer.

A block's scales are its branch list: one (k, scales) pair per k x k branch,
in the block's branch order. The scales file (format 3) is JSON holding one
record per block::

    {"block_id": "s1b1",
     "branches": [{"k": 3, "scales_hex": [...]}, {"k": 1, "scales_hex": [...]}]}

with every float stored in C hex-float form (``float.hex()``), so export/import
round-trips are bit-exact. A record omits the block's layout: its width is
the length of its (equal-length) scale vectors, its identity and depth are the
run's :class:`ModelSpec`'s, and the builders check it against that spec. Only
the branch scales are exported; the trained identity-branch gamma is dropped
on purpose because the target side fixes the identity scale convention at 1
(the bare +1 in both the multiplier and the equivalent-kernel formulas). A
malformed file raises ``DataFormatError`` and a file of another format
version ``FormatVersionError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DatasetHandle
from .errors import ConfigError, DataFormatError, FormatVersionError
from .models import Model, ModelSpec, block_infos, build_hypersearch, hs_init_value
from .optim import MultiplierSgd, OptimizerConfig, branch_list
from .rng import Rng
from .reports import write_csv, write_json
from .train import TrainResult, train_model

SCALES_FORMAT_VERSION = 3

DEGRADE_MODES = ("all_ones", "hs_init", "channel_mean")


@dataclass
class ScaleRecord:
    """One block's scales: ``branches`` holds a (k, scales) pair per k x k
    branch, in the block's branch order, every scale vector as long as the
    block is wide."""

    block_id: str
    branches: tuple

    @property
    def s(self) -> np.ndarray:
        """Scales of the first branch; a shim for perfbench's hypersearch_desk4."""
        return self.branches[0][1]

    @property
    def t(self) -> np.ndarray:
        """Scales of the second branch; a shim for perfbench's hypersearch_desk4."""
        return self.branches[1][1]


def _record_key(r: ScaleRecord) -> tuple:
    """Everything a record holds, with its scales as raw bytes (bit-exact)."""
    return r.block_id, tuple((k, np.asarray(s).tobytes()) for k, s in r.branches)


@dataclass
class ScalesFile:
    records: list
    provenance: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, ScalesFile):
            return NotImplemented
        return self.provenance == other.provenance and \
            [_record_key(r) for r in self.records] == [_record_key(r) for r in other.records]


def export_scales(scales: ScalesFile, path: str) -> None:
    write_json(path, {
        "format_version": SCALES_FORMAT_VERSION,
        "records": [
            {
                "block_id": r.block_id,
                "branches": [{"k": int(k), "scales_hex": [float(v).hex() for v in s]}
                             for k, s in r.branches],
            }
            for r in scales.records
        ],
        "provenance": scales.provenance,
    })


def _positive_int(value, what: str) -> int:
    """A JSON integer >= 1 (booleans excluded)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    return value


def _branch(doc, block_id: str) -> tuple:
    """(k, scale values) of one branch entry of a record, read but not checked:
    :func:`branch_list` checks the record's branch list."""
    doc = _object(doc, f"block {block_id}: branch")
    k, values = _positive_int(doc["k"], f"block {block_id}: k"), doc["scales_hex"]
    if not isinstance(values, list) or not values:
        raise ValueError(f"block {block_id}: want a non-empty scales_hex list, got {values!r}")
    return k, [float.fromhex(v) for v in values]


def _record(doc) -> ScaleRecord:
    doc = _object(doc, "record")
    block_id = doc["block_id"]
    if not isinstance(block_id, str):
        raise ValueError(f"record needs a string block_id, got {block_id!r}")
    raw = [_branch(b, block_id) for b in doc["branches"]]
    # every branch as long as the first; a ShapeError or ConfigError is a ValueError
    branches = branch_list(raw, len(raw[0][1]) if raw else 0, block_id)
    sizes = [k for k, _ in branches]
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"block {block_id}: duplicate branch sizes {sizes}")
    return ScaleRecord(block_id, branches)


def import_scales(path: str) -> ScalesFile:
    """Read a format-3 scales file; any malformed content raises
    :class:`DataFormatError`, another format version :class:`FormatVersionError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise DataFormatError(f"{path}: not valid UTF-8 JSON: {exc!r}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise DataFormatError(f"{path}: missing format_version header")
    if doc["format_version"] != SCALES_FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format_version {doc['format_version']!r} unsupported "
            f"(this build reads {SCALES_FORMAT_VERSION})"
        )
    try:
        if not isinstance(doc["records"], list):
            raise ValueError(f"records must be a list, got {doc['records']!r}")
        records = [_record(r) for r in doc["records"]]
        provenance = _object(doc.get("provenance", {}), "provenance")
        ids = [r.block_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate block ids in {ids}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing key, a value of the wrong type or range, or a bad hex float
        raise DataFormatError(f"{path}: malformed scales file: {exc!r}") from exc
    return ScalesFile(records, dict(provenance))


def scales_from_model(model: Model, provenance: dict | None = None) -> ScalesFile:
    """Harvest the current branch scales from a trainable-scales model."""
    records = [ScaleRecord(b.info.block_id, tuple((k, s.copy()) for k, s in b.branches))
               for b in model.blocks]
    return ScalesFile(records, dict(provenance or {}))


def degrade_scales(scales: ScalesFile, mode: str, spec: ModelSpec) -> ScalesFile:
    """Ablation transforms of every branch: all_ones, hs_init (sqrt(2/l), l the
    block's depth in ``spec``), channel_mean. Records of blocks that ``spec``
    does not have are dropped."""
    mode = mode.replace("-", "_")
    if mode not in DEGRADE_MODES:
        raise ConfigError(f"unknown degrade mode {mode!r}; want one of {DEGRADE_MODES}")
    depth = {i.block_id: i.depth_l for i in block_infos(spec)}

    def fill(s, depth_l) -> float:
        if mode == "all_ones":
            return 1.0
        return hs_init_value(depth_l) if mode == "hs_init" else float(s.mean())

    records = [replace(r, branches=tuple((k, np.full(len(s), fill(s, depth[r.block_id])))
                                         for k, s in r.branches))
               for r in scales.records if r.block_id in depth]
    prov = dict(scales.provenance)
    prov["degraded"] = mode
    return ScalesFile(records, prov)


@dataclass
class ScaleTrajectory:
    """Per-epoch mean of every branch's scales and of gamma per block (gamma
    empty where no identity). Branch columns are named by position: mean_s
    for the first branch, mean_t for the second, and on through the alphabet."""

    rows: list = field(default_factory=list)  # (epoch, block_id, *branch means, gamma|None)

    def append_epoch(self, epoch: int, model: Model) -> None:
        for block in model.blocks:
            gamma = (float(block.gamma.values.mean())
                     if block.info.has_identity else None)
            self.rows.append((epoch, block.info.block_id,
                              *(float(s.mean()) for _, s in block.branches), gamma))

    def write_csv(self, path: str) -> None:
        width = max((len(row) - 3 for row in self.rows), default=0)
        means = [f"mean_{chr(ord('s') + i)}" for i in range(width)]
        write_csv(path, ["epoch", "block_id", *means, "mean_gamma"], self.rows)


def run_hyper_search(spec: ModelSpec, dataset: DatasetHandle, cfg: OptimizerConfig,
                     seed: int, *, epochs: int | None = None,
                     test_dataset: DatasetHandle | None = None,
                     augment: bool = True) -> tuple[ScalesFile, ScaleTrajectory, TrainResult]:
    """Train the trainable-scales model end to end with plain SGD and export
    the final per-block scale vectors."""
    model_rng, data_rng = Rng.spawn(seed, 2)
    model = build_hypersearch(spec, rng=model_rng)
    optimizer = MultiplierSgd(dict(model.named_parameters()),
                              momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    trajectory = ScaleTrajectory()
    result = train_model(model, optimizer, dataset, test_dataset, cfg, data_rng,
                         epochs=epochs, augment=augment,
                         epoch_hook=trajectory.append_epoch)
    provenance = {
        "dataset": f"{dataset.source}(n={len(dataset)},res={dataset.resolution},"
                   f"classes={dataset.num_classes})",
        "seed": seed,
        "epochs": result.epochs_run,
    }
    scales = scales_from_model(model, provenance)
    for r in scales.records:
        if not all(np.isfinite(s).all() for _, s in r.branches):
            raise DataFormatError(f"block {r.block_id}: non-finite searched scales")
    return scales, trajectory, result
