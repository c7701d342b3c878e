"""Random embeddings for searching a high-dimensional space through a
low-dimensional parametrization ``x = R y``.

Each row of ``R`` is drawn uniformly on the unit hypersphere.  The search
domain for ``y`` is the box ``[-scale, scale]^d_e`` with
``scale = sqrt(d_e)``, a :class:`BoxPrior` (:attr:`Embedding.domain`);
for box priors the lifted point is clipped coordinate-wise into the prior
support so every simulator call is a feasible sample.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problems import BoxPrior, _point


@dataclass(frozen=True, kw_only=True)
class Embedding:
    """Fixed projection matrix (D x d_e, unit-norm rows) plus its y-domain.
    Field order is the key order of report.json's embeddings."""

    index: int
    matrix: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def domain(self) -> BoxPrior:
        """The y-box ``[y_lower, y_upper]``, built on first use and kept for
        the embedding's life; not a field, so not part of the JSON form."""
        return BoxPrior(self.y_lower, self.y_upper)


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
    y = _point(y, emb.embed_dim, "embedding")
    if not emb.domain.contains(y):
        raise ValueError(f"y {y.tolist()} is outside the embedding domain: "
                         f"lower {emb.y_lower.tolist()}, upper {emb.y_upper.tolist()}")
    return prior.clip(emb.matrix.dot(y))
