"""The single-process training loop shared by every experiment.

One run is fully determined by (model, optimizer, datasets, config, data
stream): batches are drawn with a seeded shuffle, augmentation consumes the
same stream, the last short batch is dropped (train-mode BN needs at least two
samples), and the learning rate follows the warmup+cosine schedule over
``cfg.total_epochs`` regardless of how many epochs this call executes.

Evaluation runs forward only, on every usable CPU (see :mod:`gradrep.parallel`),
in batches of :data:`~gradrep.parallel.EVAL_BATCH` = 128 samples: each worker
holds one batch in flight, so two workers hold as much as one batch of 256.
The steps themselves stay on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .data import DatasetHandle, iter_batches
from .errors import UsageError
from .models import Model
from .optim import OptimizerConfig, lr_schedule
from .parallel import EVAL_BATCH, accuracy
from .rng import Rng


@dataclass
class TrainResult:
    train_loss: list = field(default_factory=list)  # per-epoch mean
    test_acc: list = field(default_factory=list)  # per-epoch, when evaluated
    epochs_run: int = 0
    global_step: int = 0

    @property
    def final_test_acc(self):
        return self.test_acc[-1] if self.test_acc else None


def evaluate(model: Model, handle: DatasetHandle, batch_size: int = EVAL_BATCH) -> float:
    """Eval-mode accuracy over the whole split."""
    return accuracy(lambda x: model.forward(x, training=False).data, handle, batch_size)


def train_model(model: Model, optimizer, train_handle: DatasetHandle,
                test_handle: DatasetHandle | None, cfg: OptimizerConfig,
                data_rng: Rng, *, epochs: int | None = None, start_epoch: int = 0,
                augment: bool = False, eval_each_epoch: bool = True,
                epoch_hook=None) -> TrainResult:
    """Run ``epochs`` epochs (default: the config's total) of SGD-style
    training. ``epoch_hook(epoch, model)`` fires after each epoch; a NaN loss
    aborts with the failing epoch/step named."""
    epochs = cfg.total_epochs if epochs is None else epochs
    steps_per_epoch = len(train_handle) // cfg.batch_size
    if steps_per_epoch == 0:
        raise UsageError(
            f"dataset of {len(train_handle)} samples is smaller than one batch "
            f"({cfg.batch_size})"
        )
    total_steps = steps_per_epoch * cfg.total_epochs
    result = TrainResult(global_step=start_epoch * steps_per_epoch)
    for epoch in range(start_epoch, min(start_epoch + epochs, cfg.total_epochs)):
        losses = []
        for x, labels in iter_batches(train_handle, cfg.batch_size, rng=data_rng,
                                      augment=augment, drop_last=True):
            model.zero_grad()
            logits = model.forward(x, training=True)
            loss = ops.cross_entropy(logits, labels, cfg.label_smoothing)
            value = loss.item()
            if not np.isfinite(value):
                raise UsageError(
                    f"loss became non-finite ({value}) at epoch {epoch}, "
                    f"step {result.global_step}"
                )
            loss.backward()
            optimizer.step(lr_schedule(cfg, result.global_step, total_steps))
            result.global_step += 1
            losses.append(value)
        result.train_loss.append(float(np.mean(losses)))
        if eval_each_epoch and test_handle is not None:
            result.test_acc.append(evaluate(model, test_handle))
        result.epochs_run += 1
        if epoch_hook is not None:
            epoch_hook(epoch, model)
    return result
