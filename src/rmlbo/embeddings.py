"""Random embeddings for searching a high-dimensional space through a
low-dimensional parametrization ``x = R y``.

Each row of ``R`` is drawn uniformly on the unit hypersphere.  The search
domain for ``y`` is the box ``[-scale, scale]^d_e`` with
``scale = sqrt(d_e)`` by default; for box priors the lifted point is
clipped coordinate-wise into the prior support so every simulator call is
a feasible sample.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Embedding:
    """Fixed projection matrix (D x d_e, unit-norm rows) plus its y-domain."""

    matrix: np.ndarray
    index: int
    y_lower: np.ndarray
    y_upper: np.ndarray

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[1]

    def contains(self, y: np.ndarray) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all(y >= self.y_lower) and np.all(y <= self.y_upper))

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "matrix": self.matrix.tolist(),
            "y_lower": self.y_lower.tolist(),
            "y_upper": self.y_upper.tolist(),
        }


def sample_embedding(input_dim: int, embed_dim: int, rng: np.random.Generator,
                     index: int = 0) -> Embedding:
    """Draw an embedding whose rows are independent uniform points on the
    unit hypersphere (normalized standard normals, redrawn if degenerate)."""
    if not 1 <= embed_dim <= input_dim:
        raise ValueError(f"need 1 <= embed_dim <= input_dim, got {embed_dim} vs {input_dim}")
    rows = np.empty((input_dim, embed_dim))
    for i in range(input_dim):
        while True:
            v = rng.standard_normal(embed_dim)
            norm = float(np.linalg.norm(v))
            if norm >= 1e-12:
                break
        rows[i] = v / norm
    half = np.full(embed_dim, math.sqrt(embed_dim))
    return Embedding(matrix=rows, index=index, y_lower=-half, y_upper=half)


def lift(emb: Embedding, y, prior) -> np.ndarray:
    """Map a low-dimensional point into the original space: ``x = R y``,
    clipped into the prior's support (``prior.clip``: the box for uniform
    priors, unchanged for Gaussians).

    ``y`` outside the embedding's domain is a contract violation.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (emb.embed_dim,):
        raise ValueError(f"expected y of shape ({emb.embed_dim},), got {y.shape}")
    if not emb.contains(y):
        raise ValueError(f"y {y!r} is outside the embedding domain "
                         f"[{emb.y_lower[0]}, {emb.y_upper[0]}]^{emb.embed_dim}")
    return prior.clip(emb.matrix @ y)
