"""Labeled RNG substreams.

Every source of randomness in a run is addressed by a fixed integer label
(plus optional sub-indices such as the embedding index), so adding draws to
one component never shifts the stream seen by another.  All streams derive
from a single 64-bit master seed.
"""

import numpy as np

# Stream labels.  Never renumber: traces are only reproducible if the label
# of each consumer stays fixed.
STREAM_RANDOMIZE = 0   # data / prior-mean perturbations
STREAM_EMBED = 1       # random embedding matrices
STREAM_INIT = 2        # initial design points (per embedding)
STREAM_ACQ = 3         # acquisition maximization (per embedding)
STREAM_GPFIT = 4       # GP hyperparameter restarts (per embedding)
# 5 is retired; baselines draw from SeedSequence(method seed) instead
STREAM_TRIAL = 6       # per-trial seeds in benchmark harnesses
STREAM_LANDSCAPE = 7   # prior samples for landscape exports
STREAM_PROBLEM = 8     # synthetic problem generation


def labeled_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent Generator for the role identified by ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def labeled_seed(seed: int, *key: int) -> int:
    """Derive a plain integer seed for the role identified by ``key``.

    Used where an API wants a scalar seed (e.g. per-trial configs) while
    still keeping the stream addressable and reproducible.
    """
    state = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1, np.uint64)
    return int(state[0])
