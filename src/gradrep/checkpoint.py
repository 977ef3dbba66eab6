"""Versioned binary checkpoints.

Layout: a 48-byte prefix, then a JSON header, then the raw bytes of every
array in the order the header lists them (sorted by section and name; float64
throughout). The prefix is ``GRCP``, the little-endian uint32 format version,
the uint64 header length and the sha256 digest of everything after the prefix
(header and arrays), so a flipped or missing byte anywhere in the file raises
``DataFormatError``. The header carries the model kind and spec echo,
epoch/step counters and the data-stream RNG state, so loading a checkpoint
reproduces the run exactly: ``load(save(x))`` is bit-identical and resuming
continues an interrupted run on the same trajectory as the uninterrupted one.

Restoring builds the zero skeleton (no random draws) of one of the two kinds
``train`` writes, ``target`` and ``repvgg``, and fills it through one fit
rule (:func:`_fill`): the stored param/buffer arrays must match the
skeleton's slots (:meth:`Module.state_slots`) one to one, name and shape, or
the restore raises one ``DataFormatError`` naming every missing, unknown and
wrongly shaped array, and every array with a non-finite value or a negative
running variance, which ``train`` never writes. A checkpoint holds training
state only: the deploy form and the gradient multipliers are derived from it,
never stored.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, FormatVersionError
from .models import Model, ModelSpec, build_repvgg, build_target

MAGIC = b"GRCP"
FORMAT_VERSION = 2
PREFIX_LEN = 48  # magic, version, header length, sha256 digest


@dataclass
class Checkpoint:
    model_kind: str
    spec: ModelSpec
    params: dict
    buffers: dict
    opt_state: dict = field(default_factory=dict)
    rng_state: dict | None = None
    epoch: int = 0
    step: int = 0


def _array_sections(ckpt: Checkpoint):
    for name in sorted(ckpt.params):
        yield "param", name, ckpt.params[name]
    for name in sorted(ckpt.buffers):
        yield "buffer", name, ckpt.buffers[name]
    for name in sorted(ckpt.opt_state):
        yield "opt", name, ckpt.opt_state[name]


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    entries = []
    blobs = []
    for section, name, arr in _array_sections(ckpt):
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        entries.append({"section": section, "name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "model": {
            "kind": ckpt.model_kind,
            "spec": {
                "stem_channels": ckpt.spec.stem_channels,
                "stages": [list(s) for s in ckpt.spec.stages],
                "num_classes": ckpt.spec.num_classes,
                "input_hw": ckpt.spec.input_hw,
            },
        },
        "counters": {"epoch": ckpt.epoch, "step": ckpt.step},
        "rng": ckpt.rng_state,
        "arrays": entries,
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(raw)
    for blob in blobs:
        digest.update(blob)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(raw)) + digest.digest())
        fh.write(raw)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint (bad magic)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: checkpoint format {version} unsupported (this build reads "
            f"{FORMAT_VERSION})"
        )
    if len(data) < PREFIX_LEN:
        raise DataFormatError(f"{path}: truncated in the {PREFIX_LEN}-byte prefix")
    if hashlib.sha256(memoryview(data)[PREFIX_LEN:]).digest() != data[16:PREFIX_LEN]:
        raise DataFormatError(f"{path}: digest mismatch (corrupt or truncated)")
    header_len = struct.unpack("<Q", data[8:16])[0]
    try:
        header = json.loads(data[PREFIX_LEN:PREFIX_LEN + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt header: {exc}") from exc
    offset = PREFIX_LEN + header_len
    try:
        entries = [_array_entry(e) for e in header["arrays"]]
        kind = header["model"]["kind"]
        spec_doc = header["model"]["spec"]
        spec = ModelSpec(spec_doc["stem_channels"],
                         tuple(tuple(s) for s in spec_doc["stages"]),
                         spec_doc["num_classes"], spec_doc["input_hw"])
        epoch = _natural(header["counters"]["epoch"])
        step = _natural(header["counters"]["step"])
        rng_state = header.get("rng")
        if rng_state is not None and not isinstance(rng_state, dict):
            raise ValueError(f"rng must be an object or null, got {rng_state!r}")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        # a JSON header missing a key, or holding a value of the wrong type
        # or range; ConfigError comes from ModelSpec's own checks
        raise DataFormatError(f"{path}: malformed header: {exc!r}") from exc
    sections = {"param": {}, "buffer": {}, "opt": {}}
    for section, name, shape in entries:
        if name in sections[section]:
            raise DataFormatError(f"{path}: {section} array {name!r} is listed twice")
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise DataFormatError(
                f"{path}: truncated at array {name!r} "
                f"(need {nbytes} bytes at offset {offset}, have {len(data) - offset})"
            )
        sections[section][name] = np.frombuffer(data, dtype=np.float64, count=count,
                                                offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise DataFormatError(f"{path}: {len(data) - offset} trailing bytes")
    return Checkpoint(kind, spec, sections["param"], sections["buffer"], sections["opt"],
                      rng_state, epoch, step)


def _natural(value) -> int:
    """A non-negative JSON integer (booleans excluded)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"want a non-negative integer, got {value!r}")
    return value


def _array_entry(doc) -> tuple:
    """(section, name, shape) of one header array entry."""
    section, name, shape = doc["section"], doc["name"], doc["shape"]
    if section not in ("param", "buffer", "opt") or not isinstance(name, str):
        raise ValueError(f"bad array entry section {section!r}, name {name!r}")
    if not isinstance(shape, list):
        raise ValueError(f"array {name!r}: shape must be a list, got {shape!r}")
    return section, name, tuple(_natural(d) for d in shape)


def snapshot_model(model: Model, optimizer=None, data_rng=None, epoch=0,
                   step=0) -> Checkpoint:
    params = {n: p.data.copy() for n, p in model.named_parameters()}
    buffers = {n: np.array(b) for n, b in model.named_buffers()}
    opt_state = dict(optimizer.state_arrays()) if optimizer is not None else {}
    return Checkpoint(model.kind, model.spec, params, buffers, opt_state,
                      data_rng.get_state() if data_rng is not None else None,
                      epoch, step)


def _fill(slots: dict, ckpt: Checkpoint) -> None:
    """Write a float64 copy of every stored param/buffer array into its slot,
    (section, name) -> (holder, attribute), or raise one DataFormatError that
    names every array missing, unknown or wrongly shaped (None: absent), and
    every array holding what ``train`` never writes: a non-finite value or a
    negative running variance."""
    stored = {(s, n): a for s, n, a in _array_sections(ckpt) if s != "opt"}
    misfits = []
    for key in sorted(stored.keys() | slots.keys()):
        have = np.shape(stored[key]) if key in stored else None
        want = getattr(*slots[key]).shape if key in slots else None
        if have != want:
            misfits.append(f"{' '.join(key)}: stored {have}, model {want}")
        elif not np.isfinite(stored[key]).all():
            misfits.append(f"{' '.join(key)}: non-finite values")
        elif key[1].endswith("running_var") and (stored[key] < 0).any():
            misfits.append(f"{' '.join(key)}: negative running variance")
    if misfits:
        raise DataFormatError(f"stored arrays do not fit this {ckpt.model_kind} model: "
                              f"{misfits}")
    for key, (holder, attribute) in slots.items():
        setattr(holder, attribute, np.array(stored[key], dtype=np.float64))


def restore_model(ckpt: Checkpoint) -> Model:
    """Rebuild the skeleton of a kind that ``train`` writes, ``target`` or
    ``repvgg`` (zero kernels, no random draws), and overwrite every parameter
    and buffer with the stored values."""
    if ckpt.model_kind == "target":
        model = build_target(ckpt.spec)
    elif ckpt.model_kind == "repvgg":
        model = build_repvgg(ckpt.spec)
    else:
        raise DataFormatError(f"cannot restore model kind {ckpt.model_kind!r}")
    _fill({(s, n): (h, a) for s, n, h, a in model.state_slots()}, ckpt)
    return model
