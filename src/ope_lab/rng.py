"""Counter-based random number generation with explicit substreams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator.  Substreams are derived by hashing a (master seed, index path)
tuple into a fresh Philox key, so replication ``r`` of any Monte Carlo loop
always consumes the stream ``substream(master_seed, r)`` no matter how the
replications are scheduled across threads.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
# second key word, fixed so that plain integer seeds map to distinct keys
_KEY_PAD = 0x9E3779B97F4A7C15


def mix_seed(*parts: int | str) -> int:
    """Hash integers and strings into a stable 64-bit seed.

    The hash is independent of process state (no use of built-in ``hash``),
    so derived seeds are reproducible across runs and machines.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, (int, np.integer)):
            h.update(b"i")
            h.update(int(part).to_bytes(17, "little", signed=True))
        elif isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part)!r}")
    return int.from_bytes(h.digest(), "little")


@functools.cache
def _philox_key_type() -> type:
    """``_philox.PhiloxKey``: numpy.random, which it imports, takes 10-17 ms
    (2-core machine) that a process that draws nothing need not pay."""
    from ._philox import PhiloxKey

    return PhiloxKey


def make_generator(seed: int) -> np.random.Generator:
    """Return a Philox generator keyed by ``seed``: the stream of
    ``Philox(key=[seed mod 2**64, _KEY_PAD])``."""
    key = np.array([int(seed) & _MASK64, _KEY_PAD], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


def substream(master_seed: int, *indices: int | str) -> np.random.Generator:
    """Generator for the substream addressed by ``indices``.

    Substream index equals replication index by convention: rep ``r`` of a
    Monte Carlo loop uses ``substream(master_seed, r)`` (optionally prefixed
    by cell labels such as estimator id and sample size).
    """
    return make_generator(mix_seed(master_seed, *indices))
