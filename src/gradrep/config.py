"""Flat key=value run configuration with a closed schema.

A run is fully determined by its config, the ``seed`` key included. Every
value enters as text through its key's parser in :data:`SCHEMA`: the default,
then each ``key = value`` line of a file, then each ``--set key=value``. Only
a whole line can be a comment ('#' first); a '#' after a value is part of it,
so ``opt.momentum = 0.95 # x`` is refused. A parser holds its key's whole
domain and raises on an unknown key or a value outside it; list keys keep
their checked text.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .models import ModelSpec
from .optim import OptimizerConfig


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _checked(parse, ok, want: str):
    """A parser: ``parse`` the text, then require ``ok`` of the value."""
    def run(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"want {want}")
        return value
    return run


def _choice(*names: str, parse=str):
    """One of ``names``, read through ``parse``."""
    return _checked(parse, names.__contains__, "one of " + "|".join(names))


_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
_size = _checked(int, lambda v: v >= 1, "an integer >= 1")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_unit = _checked(float, lambda v: 0 <= v < 1, "a number in [0, 1)")


def _stages_ok(text: str) -> bool:
    try:
        ModelSpec.from_stages_string(text, 1, 1, 1)
    except ConfigError:
        return False
    return True


#: comma-separated NxC stages of positive integers, kept as their text
_stages = _checked(str, _stages_ok, "NxC stages of positive integers, comma-separated")


#: key -> (parser, default text)
SCHEMA = {
    "seed": (_count, "0"),
    "model.stem_channels": (_size, "8"),
    "model.stages": (_stages, "2x8,2x16,2x32"),
    "opt.base_lr": (_positive, "0.05"),
    "opt.momentum": (_unit, "0.9"),
    "opt.weight_decay": (_nonnegative, "4e-5"),
    "opt.warmup_epochs": (_count, "1"),
    "opt.total_epochs": (_size, "10"),
    "opt.schedule": (_choice("cosine", "constant"), "cosine"),
    "opt.label_smoothing": (_unit, "0.1"),
    "opt.batch_size": (_size, "64"),
    "opt.epochs": (_count, "0"),  # 0 = run all total_epochs
    "data.source": (_choice("synthetic", "cifar10", "cifar100"), "synthetic"),
    "data.path": (str, ""),
    "data.n": (_count, "5000"),  # 0 = the whole CIFAR split
    "data.test_n": (_count, "1000"),
    "data.resolution": (_size, "32"),
    "data.classes": (_size, "10"),
    "data.seed": (_count, "0"),
    "data.augment": (_bool, "true"),
    "eq.case": (_choice("block", "scalar", "ghost"), "block"),
    "eq.steps": (_size, "100"),
    "eq.channels": (_size, "8"),
    "eq.hw": (_size, "16"),
    "eq.batch": (_size, "4"),
    "eq.lr": (_positive, "0.01"),
    "eq.momentum": (_unit, "0.9"),
    "eq.weight_decay": (_nonnegative, "4e-5"),
    "eq.tolerance": (_nonnegative, "1e-8"),
    "quant.calib_n": (_size, "256"),
    "analyze.what": (_choice("kernel-stats", "variance-ratio",
                             parse=lambda t: t.replace("_", "-")), "kernel-stats"),
    "analyze.arch": (_choice("resnet", "hs", "hs-ones"), "resnet"),
    "analyze.seeds": (_size, "10"),
    "analyze.batch": (_size, "64"),
}


class RunConfig:
    def __init__(self):
        self._values = {}
        for key, (_, default) in SCHEMA.items():
            self.set(key, default)

    def set(self, key: str, text: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            self._values[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc

    def __getitem__(self, key: str):
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
        return ModelSpec.from_stages_string(
            self["model.stages"], self["model.stem_channels"], num_classes, input_hw
        )


def _set_item(cfg: RunConfig, item: str, where: str) -> None:
    """Apply one ``key = value`` text; an error names ``where`` it came from."""
    key, eq, value = item.partition("=")
    try:
        if not eq:
            raise ConfigError(f"expected key = value, got {item!r}")
        cfg.set(key.strip(), value.strip())
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            _set_item(cfg, stripped, f"{path}:{lineno}")
    return cfg


def load_config(path: str | None, overrides=()) -> RunConfig:
    """The config file (or the defaults), then each ``--set`` override."""
    if path:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8-sig")  # a leading byte-order mark is no key text
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
        cfg = parse_config_text(text, path)
    else:
        cfg = RunConfig()
    for item in overrides:
        _set_item(cfg, item, "--set")
    return cfg
