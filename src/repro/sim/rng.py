"""Deterministic per-component random streams.

Every stochastic component (each router's loss process, each NIC, the
disk jitter model, ...) draws from its own ``random.Random`` stream
derived from a master seed and a stable component name.  Adding or
removing one component therefore never perturbs another component's
draws, which keeps A/B comparisons (e.g. updates on vs off) paired.
"""

from __future__ import annotations

import random
# hashlib.blake2b itself, without hashlib's OpenSSL (DESIGN §5g)
from _blake2 import blake2b

__all__ = ["substream"]


def substream(master_seed: int, name: str) -> random.Random:
    """Return an independent ``random.Random`` for component ``name``.

    The stream seed is derived by hashing ``(master_seed, name)`` with
    BLAKE2b, so it is stable across runs and Python versions (unlike
    ``hash()``).
    """
    digest = blake2b(
        f"{master_seed}:{name}".encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))
