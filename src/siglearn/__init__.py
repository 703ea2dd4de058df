"""Signature-based anticipatory value learning on jump-diffusion paths.

The package is organized around a small stack:

* :mod:`siglearn.tensor_algebra` - exact truncated tensor algebra.
* :mod:`siglearn.signature` - Marcus-sense path signatures and filtering.
* :mod:`siglearn.kernelspace` - Nystrom landmark compression and the
  whitening metric.
* :mod:`siglearn.jumpdiff` - jump-diffusion environment and ensembles.
* :mod:`siglearn.proxy_flow` - deterministic proxy flow and its training.
* :mod:`siglearn.td_learning` - signature-linear TD(0) and the fixed point.
* :mod:`siglearn.greeks` - analytic sensitivities and tail risk.
* :mod:`siglearn.analysis` - structural certification checks.
* :mod:`siglearn.experiments` / :mod:`siglearn.cli` - pipelines and driver.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InsufficientDataError,
    OrderingError,
    RangeError,
    ShapeMismatchError,
    SiglearnError,
)
from .jumpdiff import JumpDiffusionParams, PathEnsemble
from .kernelspace import NystromMap, WhitenedMetric
from .proxy_flow import GeneratorParams, ProxyTrajectory, TrainConfig
from .signature import CadlagPath, FilteredProxy, SignatureConfig
from .td_learning import TdSystem
from .tensor_algebra import TruncTensor

__version__ = "0.1.0"

__all__ = [
    "TruncTensor",
    "CadlagPath",
    "FilteredProxy",
    "SignatureConfig",
    "NystromMap",
    "WhitenedMetric",
    "JumpDiffusionParams",
    "PathEnsemble",
    "GeneratorParams",
    "ProxyTrajectory",
    "TrainConfig",
    "TdSystem",
    "SiglearnError",
    "ConfigError",
    "DomainError",
    "ShapeMismatchError",
    "RangeError",
    "OrderingError",
    "InsufficientDataError",
    "DivergenceError",
    "__version__",
]
