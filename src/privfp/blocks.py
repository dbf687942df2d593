"""Block-structured vectors in R^(B*p)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError


@dataclass
class BlockVector:
    """A vector made of B blocks of equal dimension p, stored as a (B, p) array."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise StructuralError(f"expected a (B, p) array, got shape {self.data.shape}")

    @classmethod
    def zeros(cls, n_blocks: int, block_dim: int) -> "BlockVector":
        if n_blocks < 1 or block_dim < 1:
            raise StructuralError("need n_blocks >= 1 and block_dim >= 1")
        return cls(np.zeros((n_blocks, block_dim)))

    @property
    def n_blocks(self) -> int:
        return self.data.shape[0]

    @property
    def block_dim(self) -> int:
        return self.data.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.data.ravel()

    def block(self, b: int) -> np.ndarray:
        return self.data[b]

    def copy(self) -> "BlockVector":
        return BlockVector(self.data.copy())

    def mean_block(self) -> np.ndarray:
        return self.data.mean(axis=0)
