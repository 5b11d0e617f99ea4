"""A Philox key as a numpy seed sequence; apart from ``rng``, which imports
it on the first draw, because its base class is a numpy.random type."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PhiloxKey(ISeedSequence):
    """Philox seeded with this reads its two uint64 key words from it, where
    ``Philox(key=...)`` first builds an OS-entropy ``SeedSequence()`` that
    the key then overrides (about half of a generator's set-up time)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words
