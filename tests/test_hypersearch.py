import copy
import json

import numpy as np
import pytest

from gradrep.data import gen_synthetic
from gradrep.errors import ConfigError, DataFormatError, FormatVersionError, UsageError
from gradrep.hypersearch import (
    ScaleRecord,
    ScalesFile,
    degrade_scales,
    export_scales,
    import_scales,
    run_hyper_search,
    scales_from_model,
)
from gradrep.models import (
    PRESETS,
    ModelSpec,
    block_infos,
    build_hypersearch,
    build_multipliers,
    build_target,
    hs_init_value,
)
from gradrep.optim import MultiplierSgd, OptimizerConfig
from gradrep.rng import Rng
from gradrep.train import train_model
from helpers import init_scales, kernel_gap, train_family

SPEC = ModelSpec(4, ((2, 4), (1, 8)), 10, 16)
CFG = OptimizerConfig(base_lr=0.05, momentum=0.9, weight_decay=1e-4,
                      warmup_epochs=1, total_epochs=2, label_smoothing=0.1,
                      batch_size=32)


@pytest.fixture(scope="module")
def tiny_search():
    ds = gen_synthetic(128, 16, 10, seed=21)
    return run_hyper_search(SPEC, ds, CFG, seed=77, epochs=2)


class TestRunHyperSearch:
    def test_one_record_per_block_all_finite(self, tiny_search):
        scales, _, _ = tiny_search
        infos = block_infos(SPEC)
        assert [r.block_id for r in scales.records] == [i.block_id for i in infos]
        for r, info in zip(scales.records, infos):
            for _, s in r.branches:
                assert np.all(np.isfinite(s)) and s.shape == (info.c_out,)

    def test_scales_moved_from_init(self, tiny_search):
        scales, _, _ = tiny_search
        moved = sum(float(np.abs(r.branches[0][1] - hs_init_value(i.depth_l)).max())
                    for r, i in zip(scales.records, block_infos(SPEC)))
        assert moved > 0.0

    def test_trajectory_one_entry_per_epoch_per_block(self, tiny_search):
        _, traj, result = tiny_search
        n_blocks = len(block_infos(SPEC))
        assert len(traj.rows) == result.epochs_run * n_blocks
        gamma_cols = [row[4] for row in traj.rows]
        infos = {i.block_id: i for i in block_infos(SPEC)}
        for row in traj.rows:
            assert (row[4] is None) == (not infos[row[1]].has_identity)

    def test_deterministic_same_seed(self):
        ds = gen_synthetic(96, 16, 10, seed=4)
        a, _, _ = run_hyper_search(SPEC, ds, CFG, seed=5, epochs=1)
        b, _, _ = run_hyper_search(SPEC, ds, CFG, seed=5, epochs=1)
        assert a == b

    def test_nan_loss_aborts_with_location(self):
        ds = gen_synthetic(64, 16, 10, seed=4)
        model_rng, data_rng = Rng.spawn(3, 2)
        from gradrep.models import build_hypersearch

        model = build_hypersearch(SPEC, rng=model_rng)
        model.fc.weight.data[0, 0] = np.nan
        opt = MultiplierSgd(dict(model.named_parameters()))
        with pytest.raises(UsageError) as err:
            train_model(model, opt, ds, None, CFG, data_rng, epochs=1)
        assert "epoch 0" in str(err.value)


class TestScalesIO:
    def test_roundtrip_bit_exact(self, tiny_search, tmp_path):
        scales, _, _ = tiny_search
        path = tmp_path / "scales.json"
        export_scales(scales, str(path))
        assert import_scales(str(path)) == scales

    def test_export_deterministic_bytes(self, tiny_search, tmp_path):
        scales, _, _ = tiny_search
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_scales(scales, str(p1))
        export_scales(scales, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            import_scales(str(path))
        path.write_text('{"records": []}')
        with pytest.raises(DataFormatError):
            import_scales(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"format_version": 9, "records": []}')
        with pytest.raises(FormatVersionError):
            import_scales(str(path))
        # format 1 (one s/t pair per block) is not read
        path.write_text('{"format_version": 1, "provenance": {}, "records": ['
                        '{"block_id": "s1b0", "c_out": 1, "has_identity": false, '
                        '"depth_l": 1, "s_hex": ["0x1p+0"], "t_hex": ["0x1p+0"]}]}')
        with pytest.raises(FormatVersionError):
            import_scales(str(path))
        # nor format 2, whose records also held c_out, has_identity and depth_l
        path.write_text(json.dumps({"format_version": 2, "provenance": {}, "records": [
            {**self.record(), "c_out": 2, "has_identity": False, "depth_l": 1}]}))
        with pytest.raises(FormatVersionError, match="format_version 2 unsupported"):
            import_scales(str(path))

    @staticmethod
    def record(**changes):
        rec = {"block_id": "s1b0",
               "branches": [{"k": 3, "scales_hex": ["0x1p+0", "0x1.8p+0"]},
                            {"k": 1, "scales_hex": ["0x1p-1", "0x1p+0"]}]}
        rec.update(changes)
        return rec

    @pytest.mark.parametrize("doc", [
        {"records": {"s1b0": None}},
        {"records": ["s1b0"]},
        {"records": [], "provenance": ["seed"]},
        {"records": [{"block_id": "s1b0"}]},
        {"records": [record(block_id=7)]},
        {"records": [record(branches=[{"k": 3, "scales_hex": []}])]},
        {"records": [record(branches={"k": 3, "scales_hex": ["0x1p+0"] * 2})]},
        {"records": [record(branches=[])]},
        {"records": [record(branches=[{"k": 2, "scales_hex": ["0x1p+0"] * 2}])]},
        {"records": [record(branches=[{"k": "3", "scales_hex": ["0x1p+0"] * 2}])]},
        {"records": [record(branches=[{"k": 3, "scales_hex": ["0x1p+0"] * 2}] * 2)]},
        {"records": [record(branches=[{"k": 3, "scales_hex": ["0x1p+0", 1.0]}])]},
        {"records": [record(branches=[{"k": 3, "scales_hex": ["0x1p+0", "one"]}])]},
        {"records": [record(branches=[{"k": 3, "scales_hex": ["0x1p+0", "inf"]}])]},
        {"records": [record(branches=[{"k": 3, "scales_hex": ["0x1p+0", "0x1p+2000"]}])]},
        {"records": [record(), record()]},  # duplicate block id
    ])
    def test_malformed_content_is_a_data_format_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 3, **doc}))
        with pytest.raises(DataFormatError):
            import_scales(str(path))

    def test_length_mismatch_detected(self, tmp_path):
        # a record's width is its first branch's length; the 1x1 branch is shorter
        path = tmp_path / "short.json"
        branches = [{"k": 3, "scales_hex": ["0x1p+0"] * 3},
                    {"k": 1, "scales_hex": ["0x1p+0"] * 2}]
        path.write_text(json.dumps({"format_version": 3,
                                    "records": [self.record(branches=branches)]}))
        with pytest.raises(DataFormatError) as err:
            import_scales(str(path))
        assert "c_out=3" in str(err.value)

    @pytest.mark.parametrize("raw", [
        b'{"format_version": 2, "records": [], "provenance": {"\xff": 1}}',  # not UTF-8
        b'{"format_version": 2, "records": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    ])
    def test_undecodable_bytes(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError):
            import_scales(str(path))

    def test_fuzzed_desk4_files(self, tmp_path):
        # truncations, byte flips, dropped keys and wrong-typed values of a
        # desk4 scales file: each either still parses or raises DataFormatError
        src = tmp_path / "scales.json"
        export_scales(init_scales(PRESETS["desk4"]), str(src))
        raw = src.read_bytes()
        path = tmp_path / "fuzzed.json"

        def parses(data: bytes) -> bool:
            path.write_bytes(data)
            try:
                import_scales(str(path))
            except DataFormatError:
                return False
            return True

        rng = np.random.default_rng(2024)
        for cut in rng.integers(0, len(raw.rstrip()), 100):
            assert not parses(raw[:cut]), cut
        for _ in range(300):
            data = bytearray(raw)
            for pos in rng.integers(0, len(raw), 3):
                data[pos] = rng.integers(0, 256)
            parses(bytes(data))
        doc = json.loads(raw)
        for where, value in _json_locations(doc):
            if where and where[0] == "provenance":
                continue  # free-form
            if where and isinstance(where[-1], str):
                dropped = copy.deepcopy(doc)
                _parent(dropped, where).pop(where[-1])
                assert not parses(json.dumps(dropped).encode()), where
            for wrong in (None, "x", [], {}, True, 1.5):
                if type(wrong) is not type(value):
                    changed = copy.deepcopy(doc)
                    if where:
                        _parent(changed, where)[where[-1]] = wrong
                    else:
                        changed = wrong
                    assert not parses(json.dumps(changed).encode()), (where, wrong)

    def test_missing_record_lookup(self):
        partial = ScalesFile(init_scales(SPEC).records[1:])
        with pytest.raises(ConfigError) as err:
            build_multipliers(build_target(SPEC, rng=Rng(0)), partial)
        assert "s1b0" in str(err.value)


def _json_locations(doc, where=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield where, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_locations(value, where + (key,))


def _parent(doc, where):
    for key in where[:-1]:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("mode", ["hs_init", "all_ones"])
def test_init_scales_helper_matches_built_model(mode):
    # the helper reads the recipe's initial scales without building a model
    spec = PRESETS["desk6"]
    want = scales_from_model(build_hypersearch(spec, init=mode), {"source": f"init:{mode}"})
    assert init_scales(spec, mode) == want


class TestDegradeScales:
    # s1b0 (strided, depth 1), s1b1 (identity, depth 1), s1b2 (identity, depth 2)
    SPEC = ModelSpec(4, ((3, 4),), 10, 16)

    def make(self):
        rng = np.random.default_rng(0)
        return ScalesFile([
            ScaleRecord(block_id, ((3, rng.uniform(0.2, 2, 4)), (1, rng.uniform(0.2, 2, 4))))
            for block_id in ("s1b0", "s1b1", "s1b2")
        ])

    def test_all_ones(self):
        out = degrade_scales(self.make(), "all_ones", self.SPEC)
        for r in out.records:
            for _, s in r.branches:
                np.testing.assert_array_equal(s, 1.0)

    def test_channel_mean(self):
        src = self.make()
        out = degrade_scales(src, "channel_mean", self.SPEC)
        for r_in, r_out in zip(src.records, out.records):
            s_in, s_out = r_in.branches[0][1], r_out.branches[0][1]
            np.testing.assert_allclose(s_out, s_in.mean())
            assert np.all(s_out == s_out[0])

    def test_hs_init_pattern(self):
        out = degrade_scales(self.make(), "hs_init", self.SPEC)
        np.testing.assert_allclose(out.records[0].branches[0][1], np.sqrt(2.0))
        np.testing.assert_allclose(out.records[1].branches[0][1], np.sqrt(2.0))
        np.testing.assert_allclose(out.records[2].branches[0][1], 1.0)

    def test_dash_spelling_accepted(self):
        out = degrade_scales(self.make(), "all-ones", self.SPEC)
        np.testing.assert_array_equal(out.records[0].branches[0][1], 1.0)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            degrade_scales(self.make(), "searched", self.SPEC)

    def test_records_outside_the_spec_dropped(self):
        out = degrade_scales(self.make(), "hs_init", ModelSpec(4, ((2, 4),), 10, 16))
        assert [r.block_id for r in out.records] == ["s1b0", "s1b1"]

    def test_s_t_shims_read_the_first_two_branches(self):
        for r in self.make().records:
            assert r.s is r.branches[0][1] and r.t is r.branches[1][1]


class TestMixedBranchScales:
    """A hand-built format-3 file whose blocks mix ((3, s),) and
    ((3, s), (1, t)), with and without the identity."""

    SPEC = PRESETS["desk4"]

    def make(self):
        draws = Rng(8)
        records = []
        for i in block_infos(self.SPEC):  # s1b0, s1b1 (identity), s2b0, s2b1 (identity)
            sizes = (3,) if i.index in (1, 2) else (3, 1)
            records.append(ScaleRecord(i.block_id, tuple((k, 0.4 + draws.uniform(i.c_out))
                                                         for k in sizes)))
        return ScalesFile(records, {"source": "hand-built"})

    def test_roundtrip_bit_exact(self, tmp_path):
        scales = self.make()
        path = tmp_path / "mixed.json"
        export_scales(scales, str(path))
        assert import_scales(str(path)) == scales
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 3
        assert [[b["k"] for b in r["branches"]] for r in doc["records"]] == \
            [[3, 1], [3], [3], [3, 1]]

    def test_degrade_per_branch(self):
        scales = self.make()
        infos = block_infos(self.SPEC)
        for mode in ("all_ones", "hs_init", "channel_mean"):
            out = degrade_scales(scales, mode, self.SPEC).records
            for r_in, r_out, info in zip(scales.records, out, infos, strict=True):
                assert [k for k, _ in r_out.branches] == [k for k, _ in r_in.branches]
                for (_, s_in), (_, s_out) in zip(r_in.branches, r_out.branches):
                    want = {"all_ones": 1.0, "hs_init": hs_init_value(info.depth_l),
                            "channel_mean": float(s_in.mean())}[mode]
                    np.testing.assert_array_equal(s_out, np.full(info.c_out, want))

    def test_repopt_and_csla_stay_counterparts(self):
        scales = self.make()
        train_set = gen_synthetic(256, 32, 10, seed=4)
        cfg = OptimizerConfig(base_lr=0.05, momentum=0.9, weight_decay=4e-5,
                              warmup_epochs=0, total_epochs=1, label_smoothing=0.1,
                              batch_size=64)
        run = dict(spec=self.SPEC, scales=scales, train_set=train_set, cfg=cfg,
                   augment=False)
        csla, csla_loss = train_family("csla", **run)
        plain, plain_loss = train_family("repopt", **run)
        np.testing.assert_allclose(plain_loss, csla_loss, rtol=1e-10, atol=0)
        assert [cb.sizes for cb in csla.blocks] == \
            [tuple(k for k, _ in r.branches) for r in scales.records]
        assert kernel_gap(plain, csla) <= 1e-10


class TestTrainLoop:
    def test_training_reduces_loss_and_is_deterministic(self):
        ds = gen_synthetic(192, 16, 10, seed=8)

        def run():
            model_rng, data_rng = Rng.spawn(11, 2)
            model = build_target(ModelSpec(4, ((1, 4), (1, 8)), 10, 16), rng=model_rng)
            opt = MultiplierSgd(dict(model.named_parameters()), momentum=0.9)
            cfg = OptimizerConfig(base_lr=0.05, warmup_epochs=0, total_epochs=3,
                                  batch_size=32, weight_decay=0.0)
            res = train_model(model, opt, ds, None, cfg, data_rng, epochs=3,
                              eval_each_epoch=False)
            return res, model

        res1, m1 = run()
        res2, m2 = run()
        assert res1.train_loss[-1] < res1.train_loss[0]
        assert res1.train_loss == res2.train_loss
        for (n1, p1), (n2, p2) in zip(sorted(m1.named_parameters()),
                                      sorted(m2.named_parameters())):
            assert n1 == n2 and p1.data.tobytes() == p2.data.tobytes()

    def test_dataset_smaller_than_batch_rejected(self):
        ds = gen_synthetic(8, 16, 10, seed=8)
        model_rng, data_rng = Rng.spawn(11, 2)
        model = build_target(ModelSpec(4, ((1, 4),), 10, 16), rng=model_rng)
        opt = MultiplierSgd(dict(model.named_parameters()))
        with pytest.raises(UsageError):
            train_model(model, opt, ds, None,
                        OptimizerConfig(batch_size=32, warmup_epochs=0, total_epochs=1),
                        data_rng)


class TestDeskLossCurve:
    def test_smoothed_loss_strictly_decreases_over_30_epochs(self):
        # 30-epoch trainable-scales run on 5k samples; the 5-epoch moving
        # average of training loss must be strictly decreasing.
        ds = gen_synthetic(5000, 32, 10, seed=31)
        cfg = OptimizerConfig(base_lr=0.05, momentum=0.9, weight_decay=1e-4,
                              warmup_epochs=2, total_epochs=30,
                              label_smoothing=0.1, batch_size=128)
        _, _, result = run_hyper_search(PRESETS["desk4"], ds, cfg, seed=13,
                                        epochs=30, augment=True)
        losses = np.array(result.train_loss)
        smooth = np.convolve(losses, np.ones(5) / 5.0, mode="valid")
        assert np.all(np.diff(smooth) < 0), f"per-epoch losses: {losses.round(4)}"
