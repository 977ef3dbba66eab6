"""Gradient re-parameterization training laboratory.

A deterministic numpy stack for studying multiplier-based optimizers:
a reverse-mode autodiff core, model builders for plain / branched / residual
convnets, the multiplier optimizer with its equivalence harness, hyper-search
for the multiplier constants, structural conversion (BN fusion, branch
merging), and INT8 post-training-quantization analysis.
"""

from .autodiff import Parameter, Tensor
from .rng import Rng, msra_init, msra_std

__all__ = ["Parameter", "Tensor", "Rng", "msra_init", "msra_std"]

__version__ = "0.1.0"
