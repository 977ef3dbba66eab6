"""Flat key=value run configuration with a closed schema.

A run is fully determined by (config, seed). Files hold one ``key = value``
per line ('#' comments allowed); the CLI layers ``--set key=value`` overrides
on top, and the ``GRADREP_SEED`` environment variable overrides the seed last.
Unknown keys are rejected.
"""

from __future__ import annotations

import os

from .errors import ConfigError
from .models import PRESETS, ModelSpec
from .optim import OptimizerConfig


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"want a positive integer, got {value}")
    return value


#: key -> (parser, default)
SCHEMA = {
    "seed": (int, 0),
    "model.preset": (str, ""),
    "model.stem_channels": (int, 8),
    "model.stages": (str, "2x8,2x16,2x32"),
    "opt.base_lr": (float, 0.05),
    "opt.momentum": (float, 0.9),
    "opt.weight_decay": (float, 4e-5),
    "opt.warmup_epochs": (int, 1),
    "opt.total_epochs": (int, 10),
    "opt.schedule": (str, "cosine"),
    "opt.label_smoothing": (float, 0.1),
    "opt.batch_size": (int, 64),
    "opt.epochs": (int, 0),  # 0 = run all total_epochs
    "data.source": (str, "synthetic"),
    "data.path": (str, ""),
    "data.n": (int, 5000),
    "data.test_n": (int, 1000),
    "data.resolution": (int, 32),
    "data.classes": (int, 10),
    "data.seed": (int, 0),
    "data.augment": (_bool, True),
    "eq.case": (str, "block"),
    "eq.steps": (_positive_int, 100),
    "eq.channels": (int, 8),
    "eq.hw": (int, 16),
    "eq.batch": (int, 4),
    "eq.lr": (float, 0.01),
    "eq.momentum": (float, 0.9),
    "eq.weight_decay": (float, 4e-5),
    "eq.alpha_a": (float, 0.9),
    "eq.alpha_b": (float, 0.35),
    "eq.tolerance": (float, 1e-8),
    "quant.calib_n": (int, 256),
    "analyze.what": (str, "kernel-stats"),
    "analyze.arch": (str, "resnet"),
    "analyze.stage_blocks": (str, "2,16"),
    "analyze.seeds": (_positive_int, 10),
    "analyze.batch": (_positive_int, 64),
}


class RunConfig:
    def __init__(self, values: dict | None = None):
        self._values = {k: default for k, (_, default) in SCHEMA.items()}
        for key, value in (values or {}).items():
            self.set(key, value)

    def set(self, key: str, raw) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            self._values[key] = raw if not isinstance(raw, str) else parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def as_dict(self) -> dict:
        return dict(self._values)

    # -- derived objects ----------------------------------------------------

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            base_lr=self["opt.base_lr"],
            momentum=self["opt.momentum"],
            weight_decay=self["opt.weight_decay"],
            warmup_epochs=self["opt.warmup_epochs"],
            total_epochs=self["opt.total_epochs"],
            schedule=self["opt.schedule"],
            label_smoothing=self["opt.label_smoothing"],
            batch_size=self["opt.batch_size"],
        )

    def epochs_to_run(self) -> int | None:
        return self["opt.epochs"] or None

    def model_spec(self, num_classes: int, input_hw: int) -> ModelSpec:
        """Stage layout from the config; head and resolution from the data."""
        preset = self["model.preset"]
        if preset:
            if preset not in PRESETS:
                raise ConfigError(
                    f"unknown model.preset {preset!r}; known: {sorted(PRESETS)}"
                )
            base = PRESETS[preset]
            return ModelSpec(base.stem_channels, base.stages, num_classes, input_hw)
        return ModelSpec.from_stages_string(
            self["model.stages"], self["model.stem_channels"], num_classes, input_hw
        )


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        try:
            cfg.set(key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return cfg


def load_config(path: str | None, overrides=(), seed_flag: int | None = None) -> RunConfig:
    """Config file, then --set overrides, then --seed, then GRADREP_SEED."""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read(), path)
    else:
        cfg = RunConfig()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg.set(key.strip(), value.strip())
    if seed_flag is not None:
        cfg.set("seed", seed_flag)
    env_seed = os.environ.get("GRADREP_SEED")
    if env_seed is not None:
        try:
            cfg.set("seed", int(env_seed))
        except ValueError as exc:
            raise ConfigError(f"GRADREP_SEED must be an integer, got {env_seed!r}") from exc
    return cfg
