import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradrep
from gradrep import cli, config
from gradrep.checkpoint import save_checkpoint, snapshot_model
from gradrep.cli import _load_datasets, main
from gradrep.config import SCHEMA, load_config, parse_config_text
from gradrep.data import gen_synthetic
from gradrep.errors import ConfigError
from gradrep.models import ModelSpec, build_target
from gradrep.reports import read_json
from gradrep.rng import Rng

TINY_DATA = ["--set", "data.n=96", "--set", "data.test_n=32",
             "--set", "data.resolution=16", "--set", "data.classes=4"]
TINY_MODEL = ["--set", "model.stages=1x4,1x8", "--set", "model.stem_channels=4"]
TINY_OPT = ["--set", "opt.total_epochs=2", "--set", "opt.batch_size=32",
            "--set", "opt.warmup_epochs=0"]
TINY = TINY_DATA + TINY_MODEL + TINY_OPT


def run_cli(*argv):
    return main(list(argv))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config_text("seed = 5\n# comment\nopt.base_lr = 0.2\n")
        assert cfg["seed"] == 5
        assert cfg["opt.base_lr"] == 0.2
        assert cfg["opt.momentum"] == 0.9  # default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("nope.key = 1\n")
        assert "nope.key" in str(err.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("seed = banana\n", path="cfg.txt")
        assert "cfg.txt:1" in str(err.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed 5\n")

    def test_set_overrides_file(self, monkeypatch, tmp_path):
        # the file, then each --set in order; nothing else reaches the seed
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nopt.base_lr = 0.3\n")
        monkeypatch.setenv("GRADREP_SEED", "9")
        cfg = load_config(str(path))
        assert (cfg["seed"], cfg["opt.base_lr"]) == (1, 0.3)
        cfg = load_config(str(path), overrides=["seed=2", "seed = 3"])
        assert (cfg["seed"], cfg["opt.base_lr"]) == (3, 0.3)

    def test_schema_holds_the_domains(self):
        cfg = load_config(None, ["analyze.what=variance_ratio", "eq.case=ghost",
                                 "data.n=0", "model.stages=1x4, 2x8",
                                 "opt.schedule=constant", "opt.warmup_epochs=0"])
        assert cfg["analyze.what"] == "variance-ratio"
        assert cfg["eq.case"] == "ghost"
        assert cfg["data.n"] == 0
        assert cfg["model.stages"] == "1x4, 2x8"
        assert (cfg["opt.schedule"], cfg["opt.warmup_epochs"]) == ("constant", 0)

    @pytest.mark.parametrize("item", [
        "seed=-1", "data.n=-1", "eq.hw=0", "quant.calib_n=0", "data.source=imagenet",
        "eq.case=Block", "analyze.arch=vgg", "analyze.what=stats",
        "eq.lr=nan", "eq.tolerance=inf", "opt.base_lr=-inf", "seed=1.5", "model.stages=junk",
        "model.stages=2x0", "model.stages=2x8,", "model.stem_channels=0",
        "opt.total_epochs=0", "opt.batch_size=-5", "data.resolution=0", "data.classes=0",
        "eq.batch=0", "opt.warmup_epochs=-1", "opt.schedule=step", "eq.tolerance=-1",
        "opt.momentum=0.95 # x", "opt.base_lr=0", "opt.momentum=1", "opt.weight_decay=-1e-5",
        "opt.label_smoothing=1", "eq.lr=-0.01", "eq.momentum=1.5", "eq.weight_decay=-1",
    ])
    def test_value_outside_domain_rejected(self, item):
        with pytest.raises(ConfigError, match="--set: bad value"):
            load_config(None, [item])

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        # a UTF-16 byte-order mark is no UTF-8 text
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + "seed = 1\n".encode("utf-16-le"))
        assert run_cli("train", "--config", str(path), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: not UTF-8")

    def test_config_file_with_utf8_byte_order_mark_reads(self, tmp_path):
        # some editors save UTF-8 with a leading mark; it is not part of the first key
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + b"seed = 1\n")
        assert load_config(str(path))["seed"] == 1

    def test_every_schema_key_is_read(self):
        # a key no command reads would be accepted and then ignored
        text = "".join(Path(m.__file__).read_text() for m in (cli, config))
        read = set(re.findall(r"""(?:cfg|self)\[["']([\w.]+)["']\]""", text))
        assert sorted(set(SCHEMA) - read) == []
        assert sorted(read - set(SCHEMA)) == []


class TestGenData:
    def test_writes_cifar_layout_and_is_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["gen-data", "--set", "data.n=8", "--set", "data.test_n=4",
                "--set", "data.classes=4", "--set", "data.seed=3"]
        assert run_cli(*argv, "--out", out1) == 0
        assert run_cli(*argv, "--out", out2) == 0
        assert tree_bytes(out1) == tree_bytes(out2)
        assert os.path.getsize(os.path.join(out1, "train.bin")) == 8 * 3073

    def test_split_files_load_as_cifar10_and_as_cifar100(self, tmp_path):
        # gen-data writes train.bin/test.bin, the names a directory falls back to
        out = str(tmp_path / "gen")
        assert run_cli("gen-data", "--set", "data.n=8", "--set", "data.test_n=4",
                       "--set", "data.classes=4", "--out", out) == 0
        whole = ["data.n=0", "data.test_n=0"]
        train, test = _load_datasets(load_config(
            None, ["data.source=cifar10", f"data.path={out}", *whole]))
        assert train.images.tobytes() == gen_synthetic(8, 32, 4, 0).images.tobytes()
        assert test.labels.tolist() == gen_synthetic(4, 32, 4, 1).labels.tolist()
        # CIFAR-100's own layout: a coarse then a fine label byte per record
        c100 = tmp_path / "c100"
        c100.mkdir()
        for split, n in (("train", 3), ("test", 2)):
            (c100 / f"{split}.bin").write_bytes(bytes([1, 40 + n] + [n] * 3072) * n)
        train, test = _load_datasets(load_config(
            None, ["data.source=cifar100", f"data.path={c100}", *whole]))
        assert (train.num_classes, train.labels.tolist(), test.labels.tolist()) == \
            (100, [43] * 3, [42] * 2)

    def test_data_path_naming_a_file_exits_2(self, tmp_path, capsys):
        # one file would be read as both the train and the test split
        out = str(tmp_path / "gen")
        assert run_cli("gen-data", "--set", "data.n=8", "--set", "data.test_n=4",
                       "--set", "data.classes=4", "--out", out) == 0
        train_bin = os.path.join(out, "train.bin")
        assert run_cli("train", "--set", "data.source=cifar10",
                       "--set", f"data.path={train_bin}", "--set", "opt.epochs=1",
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data.path=")
        assert not (tmp_path / "x").exists()

    def test_wrong_resolution_rejected(self, tmp_path):
        code = run_cli("gen-data", "--set", "data.resolution=16",
                       "--out", str(tmp_path / "x"))
        assert code == 2

    def test_more_classes_than_the_layout_holds_rejected(self, tmp_path):
        # the CIFAR-10 reader takes labels below 10 only
        assert run_cli("gen-data", "--set", "data.classes=100", "--set", "data.n=8",
                       "--set", "data.test_n=4", "--out", str(tmp_path / "x")) == 2


class TestVerifyEquivalence:
    def test_default_block_run_passes_and_writes_report(self, tmp_path):
        out = str(tmp_path / "eq")
        assert run_cli("verify-equivalence", "--out", out) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["max_output_divergence"] <= 1e-8
        lines = Path(out, "equivalence.csv").read_text().splitlines()
        assert len(lines) == 1 + summary["steps"]

    def test_scalar_and_ghost_cases(self, tmp_path):
        for case in ("scalar", "ghost"):
            out = str(tmp_path / case)
            assert run_cli("verify-equivalence", "--set", f"eq.case={case}",
                           "--set", "eq.steps=50", "--out", out) == 0

    def test_rerun_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["verify-equivalence", "--set", "eq.steps=20", "--set", "seed=5"]
        assert run_cli(*argv, "--out", a) == 0
        assert run_cli(*argv, "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_ablation_negative_control(self, tmp_path):
        out = str(tmp_path / "ab")
        assert run_cli("verify-equivalence", "--ablation", "skip-gradmult",
                       "--set", "eq.steps=11", "--set", "eq.lr=0.1", "--out", out) == 0

    @pytest.mark.parametrize("keys", [["eq.lr=1e6", "eq.steps=100"]], ids=["lr-blowup"])
    def test_non_finite_divergence_fails(self, tmp_path, keys):
        # NaN compares False with the tolerance; it must fail the run, and the
        # summary stays strict JSON (a non-finite maximum is null). The run
        # stops at its first non-finite row: the last one of the CSV.
        out = str(tmp_path / "nf")
        assert run_cli("verify-equivalence",
                       *(a for k in keys for a in ("--set", k)), "--out", out) == 2

        def no_constant(name):
            raise AssertionError(f"summary.json holds {name}")

        summary = json.loads(Path(out, "summary.json").read_text(),
                             parse_constant=no_constant)
        assert summary["max_output_divergence"] is None
        rows = Path(out, "equivalence.csv").read_text().splitlines()[1:]
        finite = ["nan" not in row and "inf" not in row for row in rows]
        assert finite == [True] * (len(rows) - 1) + [False]
        assert summary["steps"] == len(rows)

    @pytest.mark.parametrize("argv, message", [
        (["--set", "eq.tolerance=0"], "equivalence violated"),
        (["--ablation", "skip-gradmult", "--set", "eq.lr=1e-9", "--set", "eq.steps=12"],
         "failed to break"),
    ], ids=["tolerance", "ablation-holds"])
    def test_gates_fail_the_run(self, tmp_path, capsys, argv, message):
        # the tolerance gate of a lockstep run, and an ablation too weak to break it
        assert run_cli("verify-equivalence", *argv, "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err

    def test_bad_case_rejected(self, tmp_path):
        assert run_cli("verify-equivalence", "--set", "eq.case=weird",
                       "--out", str(tmp_path / "x")) == 2


@pytest.fixture(scope="module")
def scales_file(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("hs"))
    code = run_cli("hyper-search", *TINY, "--set", "opt.epochs=1", "--out", out)
    assert code == 0
    return os.path.join(out, "scales.json")


class TestHyperSearchCli:
    def test_outputs_exist(self, scales_file):
        out = os.path.dirname(scales_file)
        for name in ("scales.json", "trajectory.csv", "metrics.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        doc = json.loads(Path(scales_file).read_text())
        assert doc["format_version"] == 3
        assert [sorted(r) for r in doc["records"]] == [["block_id", "branches"]] * 2
        assert [[b["k"] for b in r["branches"]] for r in doc["records"]] == [[3, 1]] * 2


class TestTrainCli:
    def test_repopt_without_scales_is_usage_error(self, tmp_path):
        # the multiplier-rule flags are on only with --scales; without it
        # each one is refused instead of being dropped
        for flags in (["--no-reinit"], ["--no-gradmult"], ["--scales-mode", "all-ones"]):
            assert run_cli("train", *flags, "--out", str(tmp_path / "x")) == 2, flags

    def test_dump_mults_flag_is_gone(self, tmp_path, capsys):
        # the multipliers are derived from the scales file, never stored
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--dump-mults", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --dump-mults" in capsys.readouterr().err

    def test_ablation_matrix_flag_is_gone(self, tmp_path, capsys):
        # each ablation row is its own train run (test_ablation_rows_as_single_arms)
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--ablation-matrix", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --ablation-matrix" in capsys.readouterr().err

    def test_sgd_run_writes_reports(self, tmp_path):
        out = str(tmp_path / "sgd")
        assert run_cli("train", *TINY, "--out", out) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["optimizer"] == "sgd"
        assert summary["rule_of_iteration"] is False
        assert os.path.exists(os.path.join(out, "checkpoint.ckpt"))
        assert os.path.exists(os.path.join(out, "metrics.csv"))

    def test_repopt_run_and_determinism(self, tmp_path, scales_file):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["train", *TINY, "--scales", scales_file, "--set", "seed=4"]
        assert run_cli(*argv, "--out", a) == 0
        assert run_cli(*argv, "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)
        summary = read_json(os.path.join(a, "summary.json"))
        assert summary["rule_of_initialization"] is True
        assert summary["rule_of_iteration"] is True

    def test_malformed_scales_file_exits_1(self, tmp_path, scales_file):
        raw = Path(scales_file).read_bytes()
        doc = json.loads(raw)
        # the same scales as a format-2 file, whose records restated the layout
        v2 = [{**r, "c_out": len(r["branches"][0]["scales_hex"]), "has_identity": False,
               "depth_l": 1} for r in doc["records"]]
        bad = tmp_path / "bad.json"
        for content in (raw[:40] + b"\xff\xfe" + raw[42:],
                        json.dumps({**doc, "records": {}}).encode(),
                        json.dumps({**doc, "provenance": "x"}).encode(),
                        json.dumps({**doc, "format_version": 2, "records": v2}).encode()):
            bad.write_bytes(content)
            assert run_cli("train", *TINY, "--scales", str(bad),
                           "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("k", [1000000001, 1], ids=["too-wide", "all-1x1"])
    @pytest.mark.parametrize("flags", [[], ["--no-reinit"]], ids=["reinit", "no-reinit"])
    def test_branch_not_filling_the_kernel_exits_1(self, tmp_path, capsys, scales_file,
                                                   flags, k):
        # refused naming the block before any kernel or multiplier is allocated
        doc = json.loads(Path(scales_file).read_text())
        for record in doc["records"]:
            record["branches"] = [{**record["branches"][0], "k": k}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("train", *TINY, "--scales", str(bad), *flags,
                       "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: block s1b0: branches of sizes [{k}] do not fold into a 3x3 kernel"]

    def test_scales_mode_flag(self, tmp_path, scales_file):
        out = str(tmp_path / "m")
        assert run_cli("train", *TINY, "--scales",
                       scales_file, "--scales-mode", "all-ones", "--out", out) == 0
        assert read_json(os.path.join(out, "summary.json"))["scales_mode"] == "all-ones"

    def test_scales_turn_on_the_rules(self, tmp_path, scales_file):
        out = str(tmp_path / "noiter")
        assert run_cli("train", *TINY, "--scales", scales_file, "--scales-mode",
                       "all-ones", "--no-gradmult", "--out", out) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["optimizer"] == "repopt"
        assert summary["rule_of_initialization"] is True
        assert summary["rule_of_iteration"] is False

    def test_ablation_rows_as_single_arms(self, tmp_path, scales_file):
        # the paper's ablation: the two rules one at a time, then three scale
        # sources with both rules; each row is one train run
        rows = [([], "searched", True, True),
                (["--no-reinit"], "searched", False, True),
                (["--no-gradmult"], "searched", True, False),
                (["--scales-mode", "all-ones"], "all-ones", True, True),
                (["--scales-mode", "hs-init"], "hs-init", True, True),
                (["--scales-mode", "channel-mean"], "channel-mean", True, True)]
        for i, (flags, mode, reinit, gradmult) in enumerate(rows):
            out = str(tmp_path / str(i))
            assert run_cli("train", *TINY, "--set", "opt.epochs=1",
                           "--scales", scales_file, *flags, "--out", out) == 0
            summary = read_json(os.path.join(out, "summary.json"))
            assert (summary["optimizer"], summary["scales_mode"],
                    summary["rule_of_initialization"], summary["rule_of_iteration"]) == \
                ("repopt", mode, reinit, gradmult), flags

    def test_repvgg_arch_trains(self, tmp_path):
        out = str(tmp_path / "rv")
        assert run_cli("train", *TINY, "--arch", "repvgg", "--out", out) == 0
        assert run_cli("train", *TINY, "--arch", "repvgg",
                       "--scales", "whatever.json",
                       "--out", str(tmp_path / "rv2")) == 2


@pytest.fixture(scope="module")
def repvgg_ckpt(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("rvgg"))
    assert run_cli("train", *TINY, "--arch", "repvgg", "--out", out) == 0
    return os.path.join(out, "checkpoint.ckpt")


class TestConvertQuantizeAnalyze:
    def test_convert_then_quantize(self, tmp_path, repvgg_ckpt):
        conv_out = str(tmp_path / "conv")
        assert run_cli("convert", "--checkpoint", repvgg_ckpt, *TINY_DATA,
                       "--out", conv_out) == 0
        report = read_json(os.path.join(conv_out, "conversion_report.json"))
        assert report["max_abs_output_diff"] <= 1e-10
        assert os.listdir(conv_out) == ["conversion_report.json"]  # no deploy checkpoint
        q_out = str(tmp_path / "q")
        assert run_cli("quantize", "--checkpoint", repvgg_ckpt, *TINY_DATA,
                       "--out", q_out) == 0
        ptq = read_json(os.path.join(q_out, "ptq_report.json"))
        assert ptq["from_kind"] == "repvgg"
        assert 0.0 <= ptq["fp_acc"] <= 1.0 and 0.0 <= ptq["int8_acc"] <= 1.0

    def test_quantize_plain_checkpoint_directly(self, tmp_path):
        train_out = str(tmp_path / "t")
        assert run_cli("train", *TINY, "--out", train_out) == 0
        q_out = str(tmp_path / "q")
        assert run_cli("quantize", "--checkpoint",
                       os.path.join(train_out, "checkpoint.ckpt"), *TINY_DATA,
                       "--out", q_out) == 0
        assert read_json(os.path.join(q_out, "ptq_report.json"))["from_kind"] == "target"

    def test_analyze_kernel_stats(self, tmp_path, repvgg_ckpt):
        out = str(tmp_path / "stats")
        assert run_cli("analyze", "--checkpoint", repvgg_ckpt, *TINY_DATA,
                       "--out", out) == 0
        lines = Path(out, "kernel_stats.csv").read_text().splitlines()
        assert lines[0] == "layer,std_overall,std_central,std_surrounding"
        assert len(lines) > 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_outputs_fail_convert_and_quantize(self, tmp_path, capsys):
        # every stored value is finite but the forward overflows to NaN: the
        # gate must not read the NaN gap as 0, nor quantize score NaN logits
        ckpt = snapshot_model(build_target(ModelSpec(4, ((1, 4), (2, 8)), 4, 16), rng=Rng(3)))
        ckpt.params["blocks.0.conv.weight"] *= 1.7e308
        path = str(tmp_path / "big.ckpt")
        save_checkpoint(path, ckpt)
        out = str(tmp_path / "conv")
        assert run_cli("convert", "--checkpoint", path, "--out", out) == 2
        assert read_json(os.path.join(out, "conversion_report.json"))[
            "max_abs_output_diff"] is None
        assert "max diff nan" in capsys.readouterr().err
        assert run_cli("quantize", "--checkpoint", path, *TINY_DATA,
                       "--out", str(tmp_path / "q")) == 2
        assert "non-finite logits" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["data.classes=5", "data.resolution=32"])
    def test_quantize_rejects_data_that_does_not_fit_the_checkpoint(
            self, tmp_path, repvgg_ckpt, key):
        assert run_cli("quantize", "--checkpoint", repvgg_ckpt, *TINY_DATA,
                       "--set", key, "--out", str(tmp_path / "q")) == 2

    @pytest.mark.parametrize("argv", [
        ["verify-equivalence", "--set", "eq.steps=0"],
        ["analyze", "--set", "analyze.seeds=0"],
        ["analyze", "--set", "analyze.seeds=-1"],
        ["analyze", "--set", "analyze.batch=0"],
        ["analyze", "--set", "model.stages=1x8"],
        ["verify-equivalence", "--set", "seed=-1"],
        ["gen-data", "--set", "data.seed=-3"],
        ["hyper-search", *TINY, "--set", "opt.epochs=-1"],
        ["verify-equivalence", "--set", "eq.hw=-4"],
        ["verify-equivalence", "--set", "eq.channels=-1"],
        ["train", "--set", "data.n=-100", "--set", "data.resolution=16",
         "--set", "opt.epochs=1"],
    ], ids=["eq-steps-0", "seeds-0", "seeds-neg", "batch-0", "no-identity-block",
            "seed-neg", "data-seed-neg", "epochs-neg", "eq-hw-neg", "eq-channels-neg",
            "data-n-neg"])
    def test_count_keys_exit_2(self, tmp_path, argv):
        vr = ["--set", "analyze.what=variance-ratio", "--set", "analyze.seeds=1",
              "--set", "analyze.batch=4", "--set", "data.resolution=16"]
        if argv[0] == "analyze":
            argv = argv[:1] + vr + argv[1:]
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("key", ["data.n=0", "data.test_n=0"])
    def test_empty_synthetic_split_exits_2(self, tmp_path, key):
        assert run_cli("train", *TINY, "--set", key, "--out", str(tmp_path / "x")) == 2

    def test_seed_flag_and_env_are_gone(self, tmp_path, monkeypatch, capsys):
        # the run seed enters only as the seed key
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["verify-equivalence", "--set", "eq.steps=3"]
        assert run_cli(*argv, "--out", a) == 0
        monkeypatch.setenv("GRADREP_SEED", "7")
        assert run_cli(*argv, "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", "7", "--out", a)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_analyze_variance_ratio(self, tmp_path, monkeypatch):
        # runs on numpy alone: importing scipy fails while the job runs
        monkeypatch.setitem(sys.modules, "scipy", None)
        out = str(tmp_path / "vr")
        assert run_cli("analyze", "--set", "analyze.what=variance-ratio",
                       "--set", "model.stages=1x8,6x16", "--set", "analyze.seeds=2",
                       "--set", "analyze.batch=16", "--set", "data.resolution=16",
                       "--out", out) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["blocks_measured"] == 5
        assert -1.0 <= summary["rank_correlation_vs_depth"] <= 1.0
        lines = Path(out, "variance_ratio.csv").read_text().splitlines()
        assert lines[0] == "block_id,mean_ratio" and len(lines) == 6
        for line in lines[1:]:
            float(line.split(",")[1])  # a plain float, not a numpy repr

    @pytest.mark.parametrize("arch", ["resnet", "hs", "hs-ones"])
    def test_variance_ratio_measures_the_model_stages(self, tmp_path, arch):
        # every arch reads one layout: 1x8 has no identity block, 3x16 two
        out = str(tmp_path / "vr")
        assert run_cli("analyze", "--set", "analyze.what=variance-ratio",
                       "--set", f"analyze.arch={arch}", "--set", "model.stages=1x8,3x16",
                       "--set", "analyze.seeds=1", "--set", "analyze.batch=2",
                       "--set", "data.resolution=16", "--out", out) == 0
        assert read_json(os.path.join(out, "summary.json"))["blocks_measured"] == 2

    def test_variance_ratio_input_is_not_a_model_stream(self, tmp_path, monkeypatch):
        # model k is built from Rng(seed + k); the input batch must not repeat
        # model 0's draws (its stem kernel, up to the MSRA std)
        seen = {}

        def spy(factory, data, num_seeds, base_seed=0):
            seen["data"], seen["model"] = data, factory(base_seed)
            return measure(factory, data, num_seeds, base_seed)

        measure = cli.identity_variance_ratio
        monkeypatch.setattr(cli, "identity_variance_ratio", spy)
        assert run_cli("analyze", "--set", "analyze.what=variance-ratio",
                       "--set", "model.stages=1x8,2x16", "--set", "analyze.seeds=1",
                       "--set", "analyze.batch=2", "--set", "data.resolution=16",
                       "--out", str(tmp_path / "vr")) == 0
        kernel = seen["model"].stem_conv.weight.data.ravel()
        data = seen["data"].ravel()[:kernel.size]
        assert abs(np.corrcoef(kernel, data)[0, 1]) < 0.5

    def test_variance_ratio_refuses_a_checkpoint(self, tmp_path, capsys, repvgg_ckpt):
        # it builds fresh models, so a given checkpoint would never be read
        out = tmp_path / "vr"
        assert run_cli("analyze", "--set", "analyze.what=variance-ratio",
                       "--checkpoint", repvgg_ckpt, "--out", str(out)) == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_variance_ratio_stage_of_one_block_writes_null(self, tmp_path):
        # hs on the default stages: one identity block per stage, no rank to correlate
        out = str(tmp_path / "vr")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("analyze", "--set", "analyze.what=variance-ratio",
                           "--set", "analyze.arch=hs", "--set", "analyze.seeds=1",
                           "--set", "analyze.batch=2", "--set", "data.resolution=16",
                           "--out", out) == 0

        def no_constant(name):
            raise AssertionError(f"summary.json holds {name}")

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=no_constant)
        assert summary["blocks_measured"] == 3
        assert summary["rank_correlation_vs_depth"] is None

    def test_variance_ratio_tied_stages_independent_of_hash_seed(self, tmp_path):
        # two stages of equal length: the first one in block order is measured
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gradrep.__file__)))
        summaries = []
        for hash_seed in ("1", "2"):
            out = str(tmp_path / f"vr{hash_seed}")
            subprocess.run([sys.executable, "-m", "gradrep.cli", "analyze",
                            "--set", "analyze.what=variance-ratio",
                            "--set", "model.stages=6x8,6x16", "--set", "analyze.seeds=1",
                            "--set", "analyze.batch=2", "--out", out],
                           env=dict(env, PYTHONHASHSEED=hash_seed), check=True)
            summaries.append(Path(out, "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
