import hashlib
import json
import struct

import numpy as np
import pytest

from gradrep.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    PREFIX_LEN,
    Checkpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    snapshot_model,
)
from gradrep.cli import main
from gradrep.data import gen_synthetic
from gradrep.errors import DataFormatError, FormatVersionError
from gradrep.models import (
    ModelSpec,
    block_infos,
    build_csla,
    build_hypersearch,
    build_repvgg,
    build_target,
)
from gradrep.optim import MultiplierSgd, OptimizerConfig
from gradrep.rng import Rng
from gradrep.train import train_model
from helpers import init_scales

SPEC = ModelSpec(4, ((1, 4), (2, 8)), 10, 16)
CFG = OptimizerConfig(base_lr=0.05, momentum=0.9, weight_decay=1e-4,
                      warmup_epochs=1, total_epochs=4, label_smoothing=0.1,
                      batch_size=32)

#: one seeded build of every kind a checkpoint restores
BUILDS = [
    pytest.param(lambda: build_target(SPEC, rng=Rng(3)), id="target"),
    pytest.param(lambda: build_csla(SPEC, init_scales(SPEC), rng=Rng(3)), id="csla"),
    pytest.param(lambda: build_hypersearch(SPEC, rng=Rng(3)), id="hs"),
    pytest.param(lambda: build_repvgg(SPEC, rng=Rng(3)), id="repvgg"),
]


def signed(header: bytes, payload: bytes = b"", version: int = FORMAT_VERSION) -> bytes:
    """Checkpoint bytes around a hand-edited header, with a matching digest."""
    body = header + payload
    return (MAGIC + struct.pack("<IQ", version, len(header))
            + hashlib.sha256(body).digest() + body)


def split_saved(data: bytes) -> tuple:
    """(header dict, array bytes) of a saved checkpoint."""
    header_len = struct.unpack("<Q", data[8:16])[0]
    return (json.loads(data[PREFIX_LEN:PREFIX_LEN + header_len]),
            data[PREFIX_LEN + header_len:])


def assert_same_arrays(a: dict, b: dict):
    assert sorted(a) == sorted(b)
    for k in a:
        assert a[k].shape == b[k].shape
        assert a[k].tobytes() == b[k].tobytes(), k


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        model = build_target(SPEC, rng=Rng(3))
        opt = MultiplierSgd(dict(model.named_parameters()), momentum=0.9)
        rng = Rng(5)
        rng.uniform(100)
        ckpt = snapshot_model(model, opt, rng, epoch=2, step=17)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        back = load_checkpoint(str(path))
        assert back.model_kind == "target"
        assert back.spec == SPEC
        assert back.epoch == 2 and back.step == 17
        assert_same_arrays(back.params, ckpt.params)
        assert_same_arrays(back.buffers, ckpt.buffers)
        assert back.rng_state == ckpt.rng_state

    @pytest.mark.parametrize("build", BUILDS)
    def test_restored_model_reproduces_outputs(self, tmp_path, build):
        model = build()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 16, 16))
        # move every parameter and BN statistic away from its built value
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
        model.forward(x, training=True)
        want = model.forward(x, training=False).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), snapshot_model(model))
        restored = restore_model(load_checkpoint(str(path)))
        got = restored.forward(x, training=False).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build", BUILDS)
    def test_restore_draws_no_random_numbers(self, monkeypatch, build):
        ckpt = snapshot_model(build())

        def no_draw(self, *args):
            raise AssertionError("restore_model drew random numbers")

        for draw in ("uniform", "gaussian"):
            monkeypatch.setattr(Rng, draw, no_draw)
        back = snapshot_model(restore_model(ckpt))
        assert_same_arrays(back.params, ckpt.params)
        assert_same_arrays(back.buffers, ckpt.buffers)

    def test_csla_constants_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        scales = {i.block_id: (rng.uniform(0.3, 1.7, i.c_out),
                               rng.uniform(0.3, 1.7, i.c_out))
                  for i in block_infos(SPEC)}
        model = build_csla(SPEC, scales, rng=Rng(4))
        x = np.random.default_rng(2).normal(size=(2, 3, 16, 16))
        want = model.forward(x, training=False).data
        path = tmp_path / "csla.ckpt"
        save_checkpoint(str(path), snapshot_model(model))
        restored = restore_model(load_checkpoint(str(path)))
        assert restored.forward(x, training=False).data.tobytes() == want.tobytes()

    def test_save_deterministic_bytes(self, tmp_path):
        model = build_target(SPEC, rng=Rng(3))
        ckpt = snapshot_model(model, epoch=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), ckpt)
        save_checkpoint(str(p2), ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataFormatError):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        path.write_bytes(signed(b"{}", version=9))
        with pytest.raises(FormatVersionError):
            load_checkpoint(str(path))

    def test_format_1_rejected(self, tmp_path):
        # the format-1 layout: magic, version, header length, header, arrays
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), snapshot_model(build_target(SPEC, rng=Rng(3))))
        header, payload = split_saved(path.read_bytes())
        header["format_version"] = 1
        raw = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(raw)) + raw + payload)
        with pytest.raises(FormatVersionError):
            load_checkpoint(str(path))
        assert main(["convert", "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    def test_fuzzed_bytes(self, tmp_path):
        # truncations, every one-bit flip of the prefix, and one- and two-bit
        # flips anywhere: each raises DataFormatError and convert exits 1
        src = tmp_path / "m.ckpt"
        save_checkpoint(str(src), snapshot_model(build_target(SPEC, rng=Rng(3))))
        data = src.read_bytes()
        rng = np.random.default_rng(11)
        cases = [data[:cut] for cut in rng.integers(0, len(data), 40)]
        flips = [[bit] for bit in range(PREFIX_LEN * 8)]
        flips += [rng.choice(len(data) * 8, size=n, replace=False) for n in [1, 2] * 60]
        for bits in flips:
            buf = bytearray(data)
            for bit in bits:
                buf[bit // 8] ^= 1 << (bit % 8)
            cases.append(bytes(buf))
        path = tmp_path / "fuzzed.ckpt"
        for i, case in enumerate(cases):
            path.write_bytes(case)
            with pytest.raises(DataFormatError):
                load_checkpoint(str(path))
            if i % 8 == 0:
                assert main(["convert", "--checkpoint", str(path),
                             "--out", str(tmp_path / "out")]) == 1

    def test_truncated_arrays(self, tmp_path):
        model = build_target(SPEC, rng=Rng(3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), snapshot_model(model))
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(DataFormatError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.pop("arrays"), id="no-arrays"),
        pytest.param(lambda h: h.pop("model"), id="no-model"),
        pytest.param(lambda h: h["model"].pop("spec"), id="no-spec"),
        pytest.param(lambda h: h["model"]["spec"].pop("stages"), id="no-stages"),
        pytest.param(lambda h: h.pop("counters"), id="no-counters"),
        pytest.param(lambda h: h["counters"].pop("step"), id="no-step"),
        pytest.param(lambda h: h["arrays"][0].pop("shape"), id="no-shape"),
        pytest.param(lambda h: h["arrays"][0].update(section="weights"), id="unknown-section"),
        pytest.param(lambda h: h["arrays"][0].update(shape=[-1, 4]), id="negative-shape"),
        pytest.param(lambda h: h["arrays"][0].update(shape=[2.0, 4]), id="float-shape"),
        pytest.param(lambda h: h["arrays"][0].update(shape=4), id="scalar-shape"),
        pytest.param(lambda h: h["model"]["spec"].update(stages=[[1, "4"]]), id="string-channels"),
        pytest.param(lambda h: h["model"]["spec"].update(num_classes=0), id="zero-classes"),
        pytest.param(lambda h: h["model"]["spec"].update(stem_channels=4.0), id="float-stem"),
        pytest.param(lambda h: h["model"]["spec"].update(input_hw=16.5), id="fractional-hw"),
        pytest.param(lambda h: h["model"]["spec"].update(num_classes=10.0), id="float-classes"),
        pytest.param(lambda h: h["model"]["spec"].update(stages=[[1, 4.0], [2, 8]]),
                     id="float-stage-channels"),
        pytest.param(lambda h: h["model"]["spec"].update(stages=[[True, 4], [2, 8]]),
                     id="bool-stage-depth"),
        pytest.param(lambda h: h["counters"].update(epoch="2"), id="string-epoch"),
        pytest.param(lambda h: h.update(rng=7), id="number-rng"),
    ])
    def test_malformed_header(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), snapshot_model(build_target(SPEC, rng=Rng(3))))
        header, payload = split_saved(path.read_bytes())
        edit(header)
        path.write_bytes(signed(json.dumps(header).encode(), payload))
        with pytest.raises(DataFormatError, match="malformed header"):
            load_checkpoint(str(path))
        assert main(["convert", "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    def test_array_listed_twice(self, tmp_path):
        # a second fc.bias entry with its own bytes: not a silent overwrite
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), snapshot_model(build_target(SPEC, rng=Rng(3))))
        header, payload = split_saved(path.read_bytes())
        header["arrays"].append({"section": "param", "name": "fc.bias", "shape": [10]})
        path.write_bytes(signed(json.dumps(header).encode(),
                                payload + np.full(10, 7.0).tobytes()))
        with pytest.raises(DataFormatError, match="twice"):
            load_checkpoint(str(path))

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(signed(b"[]"))
        with pytest.raises(DataFormatError, match="malformed header"):
            load_checkpoint(str(path))

    def test_cli_reports_unreadable_checkpoint(self, tmp_path):
        # a directory in place of the checkpoint file: an error line, exit 1
        assert main(["convert", "--checkpoint", str(tmp_path),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("kind,section,name", [
        ("target", "params", "blocks.1.bn.beta"),
        ("target", "buffers", "blocks.0.bn.running_mean"),
        ("csla", "params", "blocks.2.conv1.weight"),
        ("csla", "buffers", "blocks.0.scale3.const_scale"),
    ])
    def test_missing_model_array(self, tmp_path, kind, section, name):
        model = (build_target(SPEC, rng=Rng(3)) if kind == "target"
                 else build_csla(SPEC, init_scales(SPEC), rng=Rng(3)))
        ckpt = snapshot_model(model)
        del getattr(ckpt, section)[name]
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        with pytest.raises(DataFormatError) as err:
            restore_model(load_checkpoint(str(path)))
        assert name in str(err.value)
        assert main(["convert", "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("kind", ["target", "csla", "repvgg"])
    @pytest.mark.parametrize("edit", ["unknown-param", "unknown-buffer", "param-shape",
                                      "running-var-1"])
    def test_misfit_model_array(self, tmp_path, kind, edit):
        # one array that does not fit the skeleton: DataFormatError naming it
        model = {"target": lambda: build_target(SPEC, rng=Rng(3)),
                 "csla": lambda: build_csla(SPEC, init_scales(SPEC), rng=Rng(3)),
                 "repvgg": lambda: build_repvgg(SPEC, rng=Rng(3))}[kind]()
        ckpt = snapshot_model(model)
        weight = next(n for n in sorted(ckpt.params) if n.endswith("weight"))
        var = next(n for n in sorted(ckpt.buffers) if n.endswith("running_var"))
        name, section, arr = {
            "unknown-param": ("blocks.0.nope", ckpt.params, np.zeros(4)),
            "unknown-buffer": ("blocks.0.running_nope", ckpt.buffers, np.zeros(4)),
            "param-shape": (weight, ckpt.params, ckpt.params[weight][:1]),
            "running-var-1": (var, ckpt.buffers, np.ones(1)),
        }[edit]
        section[name] = arr
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        with pytest.raises(DataFormatError) as err:
            restore_model(load_checkpoint(str(path)))
        assert name in str(err.value)
        assert main(["convert", "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("kind", ["fused", "resnet"])
    def test_kind_it_does_not_build_rejected(self, tmp_path, kind):
        # "fused" is the deploy form that older builds' convert stored
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), Checkpoint(kind, SPEC, {"fc.bias": np.zeros(10)}, {}))
        with pytest.raises(DataFormatError, match=f"cannot restore model kind '{kind}'"):
            restore_model(load_checkpoint(str(path)))
        assert main(["quantize", "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("extra", [{"from_kind": "target", "num_convs": 4}, []],
                             ids=["object", "list"])
    def test_extra_key_of_older_headers_ignored(self, tmp_path, extra):
        model = build_target(SPEC, rng=Rng(3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), snapshot_model(model, epoch=1))
        header, payload = split_saved(path.read_bytes())
        assert "extra" not in header
        header["extra"] = extra
        path.write_bytes(signed(json.dumps(header, sort_keys=True).encode(), payload))
        back = load_checkpoint(str(path))
        assert back.epoch == 1
        assert_same_arrays(back.params, snapshot_model(model).params)


class TestResume:
    # the two kinds gradrep train writes
    @pytest.mark.parametrize("builder", [build_target, build_repvgg],
                             ids=["target", "repvgg"])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, builder):
        pool = gen_synthetic(320, 16, 10, seed=7)
        train, test = pool.subset(256), pool.subset(64, offset=256)

        def fresh():
            model_rng, data_rng = Rng.spawn(9, 2)
            model = builder(SPEC, rng=model_rng)
            opt = MultiplierSgd(dict(model.named_parameters()), momentum=CFG.momentum,
                                weight_decay=CFG.weight_decay)
            return model, opt, data_rng

        # uninterrupted 4 epochs
        model_a, opt_a, rng_a = fresh()
        train_model(model_a, opt_a, train, test, CFG, rng_a, epochs=4)

        # 2 epochs, checkpoint, reload, 2 more
        model_b, opt_b, rng_b = fresh()
        train_model(model_b, opt_b, train, test, CFG, rng_b, epochs=2)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(str(path), snapshot_model(model_b, opt_b, rng_b, epoch=2,
                                                  step=2 * (256 // 32)))
        ckpt = load_checkpoint(str(path))
        model_c = restore_model(ckpt)
        opt_c = MultiplierSgd(dict(model_c.named_parameters()), momentum=CFG.momentum,
                              weight_decay=CFG.weight_decay)
        opt_c.load_state_arrays(ckpt.opt_state)
        rng_c = Rng(0)
        rng_c.set_state(ckpt.rng_state)
        train_model(model_c, opt_c, train, test, CFG, rng_c, epochs=2,
                    start_epoch=ckpt.epoch)

        params_a = {n: p.data for n, p in model_a.named_parameters()}
        params_c = {n: p.data for n, p in model_c.named_parameters()}
        assert_same_arrays(params_a, params_c)
        buf_a = {n: np.array(b) for n, b in model_a.named_buffers()}
        buf_c = {n: np.array(b) for n, b in model_c.named_buffers()}
        assert_same_arrays(buf_a, buf_c)

    @pytest.mark.parametrize("key,arr", [
        ("velocity.blocks.0.conv.weight", np.zeros(1)),
        ("velocity.nope", np.zeros(1)),
        ("momentum.fc.bias", np.zeros(10)),
        ("mult.blocks.0.conv.weight", np.ones((4, 4, 3, 3))),
    ], ids=["wrong-shape", "unknown-parameter", "not-a-velocity", "multiplier-dump"])
    def test_resume_rejects_misfit_optimizer_state(self, tmp_path, key, arr):
        model = build_target(SPEC, rng=Rng(3))
        opt = MultiplierSgd(dict(model.named_parameters()), momentum=0.9)
        ckpt = snapshot_model(model, opt)
        ckpt.opt_state[key] = arr
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ckpt)
        ckpt = load_checkpoint(str(path))
        opt = MultiplierSgd(dict(restore_model(ckpt).named_parameters()), momentum=0.9)
        with pytest.raises(DataFormatError, match=key):
            opt.load_state_arrays(ckpt.opt_state)
