"""Deterministic random-number plumbing.

Every stochastic component (synthetic counters, traffic models, app run
variation) takes an explicit :class:`numpy.random.Generator`.  These
helpers derive independent child generators from a parent seed plus a
stable string key, so experiments are reproducible end-to-end and
adding a new consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["stable_seed", "spawn_rng"]


def stable_seed(*keys: object) -> int:
    """Map arbitrary keys to a stable 32-bit seed.

    Uses CRC32 over the repr of the keys — stable across processes and
    Python versions (unlike ``hash()``, which is salted).

    >>> stable_seed("gpcdr", 42) == stable_seed("gpcdr", 42)
    True
    """
    text = "\x1f".join(repr(k) for k in keys)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def spawn_rng(seed: int | np.random.Generator, *keys: object) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and string keys.

    If ``seed`` is already a Generator, a child is derived from its
    bit-generator state combined with the keys, which keeps child
    streams decorrelated without consuming draws from the parent.
    numpy is imported here, by the first call, not with the module.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        base = int(seed.bit_generator.seed_seq.entropy or 0)  # type: ignore[union-attr]
    else:
        base = int(seed)
    return np.random.default_rng(np.random.SeedSequence([base & 0xFFFFFFFF, stable_seed(*keys)]))
