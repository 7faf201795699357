"""A thin shaped/dtyped tensor wrapper over numpy.

The simulator computes real values with numpy while accounting simulated GPU
cost separately.  :class:`SimTensor` carries the metadata the cost and memory
models need (logical dtype — numpy float16 arithmetic is emulated in float32
for speed — layout, and an optional sparsity mask describing which values are
semantically non-zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hw.spec import dtype_bytes
from .layout import Layout

_NUMPY_DTYPES = {
    "float64": np.float64,
    "float32": np.float32,
    # fp16 values are *stored* as fp32 in the simulator for numerical
    # convenience; the logical dtype still drives byte and FLOP accounting.
    "float16": np.float32,
    "bfloat16": np.float32,
    "int32": np.int32,
    "int8": np.int8,
}


@dataclass
class SimTensor:
    """A tensor in the simulation: real values + device-relevant metadata."""

    data: np.ndarray
    dtype: str = "float32"
    layout: Layout = Layout.ROW_MAJOR
    #: Optional boolean mask of semantically non-zero positions.  When absent,
    #: the data itself defines sparsity (data != 0).
    mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.dtype not in _NUMPY_DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        self.data = np.asarray(self.data, dtype=_NUMPY_DTYPES[self.dtype])
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.data.shape:
                raise ValueError(
                    f"mask shape {self.mask.shape} != data shape {self.data.shape}"
                )

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Device bytes at the *logical* dtype (not numpy's storage dtype)."""
        return self.size * dtype_bytes(self.dtype)

    def nonzero_mask(self) -> np.ndarray:
        """Boolean mask of non-zero positions (explicit mask wins)."""
        if self.mask is not None:
            return self.mask
        return self.data != 0

    def sparsity_ratio(self) -> float:
        """Fraction of zero elements, the paper's 'sparsity ratio'."""
        if self.size == 0:
            return 0.0
        return 1.0 - float(self.nonzero_mask().sum()) / self.size

    def masked_data(self) -> np.ndarray:
        """Values with masked-out positions zeroed (the semantic content)."""
        if self.mask is None:
            return self.data
        return np.where(self.mask, self.data, 0.0)


def randn(shape, *, dtype: str = "float32", seed: int = 0, scale: float = 1.0) -> SimTensor:
    """A seeded standard-normal tensor."""
    rng = np.random.default_rng(seed)
    return SimTensor(rng.standard_normal(shape) * scale, dtype=dtype)


def from_mask(mask: np.ndarray, *, dtype: str = "float32", seed: int = 0) -> SimTensor:
    """Random values placed at ``mask``'s True positions, zero elsewhere."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(mask.shape) * mask
    return SimTensor(data, dtype=dtype, mask=np.asarray(mask, dtype=bool))
