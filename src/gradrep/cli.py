"""Command-line entry points.

Subcommands: gen-data, hyper-search, train, verify-equivalence, convert,
quantize, analyze. Every job reads a flat key=value config file (--config)
with --set key=value overrides on top, the run seed included as ``seed``;
the schema in :mod:`gradrep.config` has checked each value before a command
reads it. A job runs one module and writes CSV/JSON reports under --out.
train runs one arm per call (the rule flags pick it) and also writes its
checkpoint. convert checks a trained checkpoint's fold into the
deploy form; quantize measures that fold: its INT8 accuracy drops and its
kernel position stats. analyze measures identity-variance ratios on fresh
models. Reruns with an identical config produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import quantize as quantmod
from .checkpoint import load_checkpoint, restore_model, save_checkpoint, snapshot_model
from .config import RunConfig, load_config
from .data import gen_synthetic, load_cifar, write_cifar10
from .equivlab import convert_model, identity_variance_ratio, spearman, verify_csla_gr
from .errors import ConfigError, GradrepError, UsageError
from .hypersearch import degrade_scales, export_scales, import_scales, run_hyper_search
from .models import (
    CslaBlockSpec,
    build_multipliers,
    build_hypersearch,
    build_repvgg,
    build_resnet,
    build_target,
    build_target_equivalent_init,
    count_built_params,
)
from .optim import MultiplierSgd, OptimizerConfig
from .reports import write_csv, write_json
from .rng import Rng
from .train import train_model


def _load_datasets(cfg: RunConfig):
    source = cfg["data.source"]
    if source == "synthetic":
        if not (cfg["data.n"] and cfg["data.test_n"]):
            raise ConfigError("data.source=synthetic needs data.n and data.test_n "
                              ">= 1 (0 means the whole split only for CIFAR)")
        pool = gen_synthetic(cfg["data.n"] + cfg["data.test_n"],
                             cfg["data.resolution"], cfg["data.classes"],
                             cfg["data.seed"])
        return pool.subset(cfg["data.n"]), pool.subset(cfg["data.test_n"],
                                                       offset=cfg["data.n"])
    # cifar10 or cifar100, where a size of 0 keeps the whole split
    if not cfg["data.path"]:
        raise ConfigError(f"data.source={source} requires data.path")
    if not os.path.isdir(cfg["data.path"]):
        # a single file would serve as both splits
        raise ConfigError(f"data.path={cfg['data.path']!r} is not a directory; "
                          "it must hold the train and test files")
    train = load_cifar(cfg["data.path"], source, split="train")
    test = load_cifar(cfg["data.path"], source, split="test")
    if cfg["data.n"] and cfg["data.n"] < len(train):
        train = train.subset(cfg["data.n"])
    if cfg["data.test_n"] and cfg["data.test_n"] < len(test):
        test = test.subset(cfg["data.test_n"])
    return train, test


def _metrics_rows(result):
    rows = []
    for i, loss in enumerate(result.train_loss):
        acc = result.test_acc[i] if i < len(result.test_acc) else None
        rows.append((i, loss, acc))
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

#: largest output divergence a lockstep run may reach
LOCKSTEP_TOLERANCE = 1e-8
#: batches of two Gaussian images on which convert checks the fold
CHECK_INPUTS = 100


def cmd_gen_data(args, cfg: RunConfig) -> int:
    if cfg["data.resolution"] != 32:
        raise ConfigError("gen-data writes the 32x32 binary record layout; "
                          "set data.resolution=32")
    train = gen_synthetic(cfg["data.n"], 32, cfg["data.classes"], cfg["data.seed"])
    test = gen_synthetic(cfg["data.test_n"], 32, cfg["data.classes"],
                         cfg["data.seed"] + 1)
    write_cifar10(train, os.path.join(args.out, "train.bin"))
    write_cifar10(test, os.path.join(args.out, "test.bin"))
    write_json(os.path.join(args.out, "summary.json"), {
        "train_records": len(train), "test_records": len(test),
        "classes": cfg["data.classes"], "seed": cfg["data.seed"],
    })
    return 0


def cmd_hyper_search(args, cfg: RunConfig) -> int:
    train, test = _load_datasets(cfg)
    spec = cfg.model_spec(train.num_classes, train.resolution)
    scales, trajectory, result = run_hyper_search(
        spec, train, cfg.optimizer_config(), cfg["seed"],
        epochs=cfg.epochs_to_run(), test_dataset=test,
        augment=cfg["data.augment"],
    )
    export_scales(scales, os.path.join(args.out, "scales.json"))
    trajectory.write_csv(os.path.join(args.out, "trajectory.csv"))
    write_csv(os.path.join(args.out, "metrics.csv"),
              ["epoch", "train_loss", "test_acc"], _metrics_rows(result))
    write_json(os.path.join(args.out, "summary.json"), {
        "final_train_loss": result.train_loss[-1],
        "final_test_acc": result.final_test_acc,
        "epochs": result.epochs_run,
        "config": cfg.as_dict(),
    })
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    """Train one arm: the three-branch baseline (--arch repvgg) or the plain
    model, with the multiplier rules turned on by --scales."""
    rule_flags = {"--no-reinit": args.no_reinit, "--no-gradmult": args.no_gradmult,
                  "--scales-mode": args.scales_mode != "searched"}
    given = [flag for flag, on in rule_flags.items() if on]
    if given and not args.scales:
        raise UsageError(f"{', '.join(given)} given without --scales <file>; the "
                         "multiplier rules apply only with scales")
    if args.arch == "repvgg" and args.scales:
        raise UsageError("--arch repvgg trains the three-branch baseline with a "
                         "plain optimizer; scales/multipliers do not apply")
    train, test = _load_datasets(cfg)
    spec = cfg.model_spec(train.num_classes, train.resolution)
    scales = import_scales(args.scales) if args.scales else None
    if args.scales_mode != "searched":  # refused above without --scales
        scales = degrade_scales(scales, args.scales_mode, spec)

    model_rng, data_rng = Rng.spawn(cfg["seed"], 2)
    if args.arch == "repvgg":
        model = build_repvgg(spec, rng=model_rng)
    elif scales is not None and not args.no_reinit:
        model = build_target_equivalent_init(spec, scales, rng=model_rng)
    else:
        model = build_target(spec, rng=model_rng)
    mults = (build_multipliers(model, scales)
             if scales is not None and not args.no_gradmult else {})
    ocfg = cfg.optimizer_config()
    opt = MultiplierSgd(dict(model.named_parameters()), momentum=ocfg.momentum,
                        weight_decay=ocfg.weight_decay, multipliers=mults,
                        managed=tuple(model.gr_managed_params()) if mults else ())
    result = train_model(model, opt, train, test, ocfg, data_rng,
                         epochs=cfg.epochs_to_run(), augment=cfg["data.augment"])
    write_csv(os.path.join(args.out, "metrics.csv"),
              ["epoch", "train_loss", "test_acc"], _metrics_rows(result))
    write_json(os.path.join(args.out, "summary.json"), {
        "optimizer": "repopt" if scales is not None else "sgd",
        "scales_mode": args.scales_mode if scales is not None else None,
        "rule_of_initialization": scales is not None and not args.no_reinit,
        "rule_of_iteration": bool(opt.multipliers),
        "final_test_acc": result.final_test_acc,
        "final_train_loss": result.train_loss[-1],
        "params_train": count_built_params(model),
        "config": cfg.as_dict(),
    })
    save_checkpoint(os.path.join(args.out, "checkpoint.ckpt"),
                    snapshot_model(model, opt, data_rng, epoch=result.epochs_run,
                                   step=result.global_step))
    return 0


def cmd_verify_equivalence(args, cfg: RunConfig) -> int:
    ocfg = OptimizerConfig(base_lr=cfg["eq.lr"], momentum=cfg["eq.momentum"],
                           weight_decay=cfg["eq.weight_decay"], schedule="constant",
                           warmup_epochs=0, total_epochs=1, label_smoothing=0.0,
                           batch_size=cfg["eq.batch"])
    case = cfg["eq.case"]
    seed = cfg["seed"]
    c = cfg["eq.channels"]
    ablation = args.ablation.replace("-", "_") if args.ablation else None
    if case == "scalar":  # two 3x3 branches with scalar scales 0.9 and 0.35
        block = CslaBlockSpec(c, c, 1, ((3, np.full(c, 0.9)), (3, np.full(c, 0.35))),
                              False)
    elif case == "block":
        draws = Rng(seed).uniform(2 * c)
        block = CslaBlockSpec(c, c, 1, ((3, 0.4 + draws[:c]), (1, 0.4 + draws[c:])), True)
    else:  # ghost: a 0.8-scaled 1x1 branch plus identity, BN after the sum
        block = CslaBlockSpec(c, c, 1, ((1, np.full(c, 0.8)),), True)
    report = verify_csla_gr(block, cfg["eq.steps"], ocfg, seed, batch=cfg["eq.batch"],
                            hw=cfg["eq.hw"], ablation=ablation,
                            post_bn=case == "ghost")
    report.write_csv(os.path.join(args.out, "equivalence.csv"))
    report.write_json_summary(os.path.join(args.out, "summary.json"))
    maxima = (report.max_output_divergence, report.max_kernel_divergence)
    if not np.isfinite(maxima).all():
        raise UsageError(f"divergence became non-finite: max output {maxima[0]!r}, "
                         f"max kernel {maxima[1]!r}")
    if ablation:
        if report.divergence_at(min(10, cfg["eq.steps"] - 1)) <= 1e-3:
            raise UsageError(
                f"ablation {args.ablation} failed to break equivalence "
                f"(max divergence {report.max_output_divergence!r})"
            )
        return 0
    if report.max_output_divergence > LOCKSTEP_TOLERANCE:
        raise UsageError(
            f"equivalence violated: max output divergence "
            f"{report.max_output_divergence!r} > tolerance {LOCKSTEP_TOLERANCE!r}"
        )
    return 0


@np.errstate(all="ignore")  # an overflow fails the gate; numpy's warnings stay silent
def cmd_convert(args, cfg: RunConfig) -> int:
    """Fold a trained checkpoint into its deploy form and check that both give
    the same logits on :data:`CHECK_INPUTS` batches drawn from the run seed."""
    model = restore_model(load_checkpoint(args.checkpoint))
    fused = convert_model(model)
    stream = Rng(cfg["seed"])
    gaps = []
    for _ in range(CHECK_INPUTS):
        x = stream.gaussian((2, 3, model.spec.input_hw, model.spec.input_hw))
        gaps.append(np.abs(model.forward(x, training=False).data - fused.forward(x)).max())
    worst = float(np.max(gaps))  # NaN once any gap is NaN (Python's max would skip it)
    write_json(os.path.join(args.out, "conversion_report.json"), {
        "from_kind": model.kind,
        "eval_inputs_checked": CHECK_INPUTS,
        "max_abs_output_diff": worst if np.isfinite(worst) else None,
        "fused_convs": len(fused.convs),
    })
    if not worst <= 1e-10:
        raise UsageError(f"conversion not inference-equivalent: max diff {worst!r}")
    return 0


@np.errstate(all="ignore")  # non-finite stats or logits fail the run; no warnings
def cmd_quantize(args, cfg: RunConfig) -> int:
    model = restore_model(load_checkpoint(args.checkpoint))
    deploy = convert_model(model)
    train, test = _load_datasets(cfg)
    if (train.num_classes, train.resolution) != (deploy.spec.num_classes,
                                                  deploy.spec.input_hw):
        raise ConfigError(
            f"data has {train.num_classes} classes at {train.resolution}px; the "
            f"checkpoint was built for {deploy.spec.num_classes} classes at "
            f"{deploy.spec.input_hw}px")
    calib = train.normalized(np.arange(min(cfg["quant.calib_n"], len(train))))
    quantized = quantmod.ptq_model(deploy, calib)
    weights_only = quantmod.quantize_weights_only(deploy)
    fp_acc = quantmod.model_accuracy(deploy, test)
    int8_acc = quantmod.model_accuracy(quantized, test)
    wq_acc = quantmod.model_accuracy(weights_only, test)
    stats = quantmod.position_stats_report(deploy)
    for layer, *stds in stats:
        if not np.isfinite(stds).all():
            raise UsageError(f"non-finite kernel stats in {layer}: std overall, "
                             f"central, surrounding {stds!r}")
    write_csv(os.path.join(args.out, "kernel_stats.csv"),
              ["layer", "std_overall", "std_central", "std_surrounding"], stats)
    write_json(os.path.join(args.out, "ptq_report.json"), {
        "from_kind": model.kind,
        "fp_acc": fp_acc,
        "int8_acc": int8_acc,
        "weights_only_acc": wq_acc,
        "accuracy_drop": fp_acc - int8_acc,
        "calibration_samples": int(min(cfg["quant.calib_n"], len(train))),
    })
    return 0


def cmd_analyze(args, cfg: RunConfig) -> int:
    """Identity-variance ratios of fresh analyze.arch models on the run's spec."""
    spec = cfg.model_spec(cfg["data.classes"], cfg["data.resolution"])
    # a child stream: Rng(seed) itself builds the first model
    data = Rng.spawn(cfg["seed"], 1)[0].gaussian(
        (cfg["analyze.batch"], 3, spec.input_hw, spec.input_hw))
    arch = cfg["analyze.arch"]

    def factory(seed):
        if arch == "resnet":
            return build_resnet(spec, rng=Rng(seed))
        return build_hypersearch(spec, rng=Rng(seed),
                                 init="hs_init" if arch == "hs" else "all_ones")

    ids, per_seed, mean = identity_variance_ratio(
        factory, data, cfg["analyze.seeds"], base_seed=cfg["seed"])
    write_csv(os.path.join(args.out, "variance_ratio.csv"),
              ["block_id", "mean_ratio"], list(zip(ids, mean)))
    stages = [b.split("b")[0] for b in ids]
    longest = max(dict.fromkeys(stages), key=stages.count)  # the first on a tie
    depth_idx = [i for i, st in enumerate(stages) if st == longest]
    corr = (spearman(np.arange(len(depth_idx)), mean[depth_idx])
            if len(depth_idx) >= 2 else None)
    write_json(os.path.join(args.out, "summary.json"), {
        "arch": arch,
        "seeds": cfg["analyze.seeds"],
        "batch": cfg["analyze.batch"],
        "blocks_measured": len(ids),
        "rank_correlation_vs_depth": corr,
    })
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (the run seed is seed=N)")
    sub.add_argument("--out", required=True, help="output directory for reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradrep",
        description="gradient re-parameterization training laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset in the CIFAR "
                                        "binary layout")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("hyper-search", help="train the trainable-scales model and "
                                            "export the searched scales")
    _add_common(p)
    p.set_defaults(fn=cmd_hyper_search)

    p = sub.add_parser("train", help="train one arm: the plain target model, "
                                     "with the multiplier rules under --scales, "
                                     "or the three-branch baseline")
    _add_common(p)
    p.add_argument("--arch", choices=["target", "repvgg"], default="target")
    p.add_argument("--scales", help="scales JSON from hyper-search (enables the "
                                    "multiplier rules)")
    p.add_argument("--scales-mode", default="searched",
                   choices=["searched", "all-ones", "hs-init", "channel-mean"])
    p.add_argument("--no-reinit", action="store_true",
                   help="skip the equivalent-kernel initialization rule")
    p.add_argument("--no-gradmult", action="store_true",
                   help="skip the gradient-multiplier rule")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("verify-equivalence", help="lockstep counterpart verification")
    _add_common(p)
    p.add_argument("--ablation", choices=["skip-reinit", "skip-gradmult"],
                   help="run a negative control instead (must break equivalence)")
    p.set_defaults(fn=cmd_verify_equivalence)

    p = sub.add_parser("convert", help="check that a trained checkpoint's fold into "
                                       "one conv per block is inference-equivalent")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("quantize", help="INT8 post-training quantization report")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("analyze", help="identity-variance ratios of fresh models "
                                       "(analyze.arch)")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        return args.fn(args, cfg)
    except GradrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, UsageError)) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
