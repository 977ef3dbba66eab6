"""INT8 post-training quantization simulation and kernel-position statistics.

The recipe is fixed and documented: symmetric per-tensor quantization with
scale = max|x| / 127 (a 1e-12 floor guards all-zero tensors), values rounded
to the nearest integer and clamped to [-127, 127]. Weights are quantized once;
activations are fake-quantized at every layer input with scales calibrated as
the max absolute activation over a calibration set. Biases stay in float.

Calibration and accuracy run their batches on every usable CPU (see
:mod:`gradrep.parallel`). A batch's max-abs and its count of correct answers
are exact, and they are reduced in batch order, so scales and accuracies are
the same for any worker count. Accuracy batches hold 128 samples
(:data:`~gradrep.parallel.EVAL_BATCH`): each worker holds one batch's
activations in flight, so two workers hold as much as one batch of 256.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivlab import FusedConv, InferenceModel
from .errors import ConfigError, ShapeError
from .parallel import EVAL_BATCH, accuracy, parallel_map

SCALE_FLOOR = 1e-12


def int8_scale(amax: float) -> float:
    """The symmetric int8 scale of a tensor whose largest magnitude is amax."""
    return max(amax / 127.0, SCALE_FLOOR)


def fake_quantize(arr: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Round to the int8 grid of ``scale``, clamp to [-127, 127], scale back;
    into ``out`` when given (``arr`` itself for an in-place pass), else into
    one new array."""
    q = np.divide(arr, scale, out=out)
    np.rint(q, out=q)
    np.clip(q, -127, 127, out=q)
    q *= scale
    return q


def _quantize_weight(w: np.ndarray) -> np.ndarray:
    return fake_quantize(w, int8_scale(float(np.abs(w).max())))


@dataclass(frozen=True)
class KernelStats:
    std_overall: float
    std_central: float
    std_surrounding: float


def kernel_position_stats(kernel: np.ndarray) -> KernelStats:
    """Population stds of a 3x3 kernel overall, at the central positions, and
    at the eight non-central positions."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4 or kernel.shape[2:] != (3, 3):
        raise ShapeError(f"want a (c_out, c_in, 3, 3) kernel, got {kernel.shape}")
    central = kernel[:, :, 1, 1]
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    surrounding = kernel[:, :, mask]
    return KernelStats(float(kernel.std()), float(central.std()),
                       float(surrounding.std()))


class QuantizedModel(InferenceModel):
    """The weight-quantized deploy model with its input and every activation
    fake-quantized at their calibrated scales."""

    def __init__(self, weights: InferenceModel, act_scales: list, input_scale: float):
        super().__init__(weights.convs, weights.fc_weight, weights.fc_bias, weights.spec)
        self.input_scale = input_scale
        self.act_scales = act_scales  # one per conv output (= next layer's input)

    def features(self, x: np.ndarray):
        h = fake_quantize(np.asarray(x, dtype=np.float64), self.input_scale)
        for conv, scale in zip(self.convs, self.act_scales):
            h = conv.forward(h)
            np.maximum(h, 0.0, out=h)
            fake_quantize(h, scale, out=h)
            yield h


def ptq_model(model: InferenceModel, calibration: np.ndarray,
              batch_size: int = 64) -> QuantizedModel:
    """Quantize a deploy-form model: weights per tensor, activations with
    max-abs calibration over the calibration set."""
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.ndim != 4 or calibration.shape[0] == 0:
        raise ConfigError(
            f"calibration set must be a non-empty (n, c, h, w) array, got shape "
            f"{calibration.shape}"
        )

    def amaxes(start):
        """[input amax, amax of each layer's activation] of one batch."""
        batch = calibration[start:start + batch_size]
        return [float(np.abs(batch).max())] + [float(np.abs(act).max())
                                               for act in model.features(batch)]

    per_batch = parallel_map(amaxes, range(0, len(calibration), batch_size))
    input_amax, *act_amax = (max(0.0, *column) for column in zip(*per_batch))
    return QuantizedModel(quantize_weights_only(model), [int8_scale(a) for a in act_amax],
                          int8_scale(input_amax))


def quantize_weights_only(model: InferenceModel) -> InferenceModel:
    """Round-trip every weight tensor through int8; activations stay float."""
    convs = [FusedConv(_quantize_weight(conv.kernel), conv.bias.copy(), conv.stride)
             for conv in model.convs]
    return InferenceModel(convs, _quantize_weight(model.fc_weight),
                          model.fc_bias.copy(), spec=model.spec)


def model_accuracy(model, handle, batch_size: int = EVAL_BATCH) -> float:
    """Accuracy of a deploy-form (or quantized) model over a dataset handle."""
    return accuracy(model.forward, handle, batch_size)


def position_stats_report(model: InferenceModel) -> list:
    """Rows (layer, std_overall, std_central, std_surrounding) per 3x3 conv."""
    rows = []
    for i, conv in enumerate(model.convs):
        if conv.kernel.shape[2:] == (3, 3):
            st = kernel_position_stats(conv.kernel)
            rows.append((f"conv{i}", st.std_overall, st.std_central,
                         st.std_surrounding))
    return rows
