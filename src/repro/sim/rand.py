"""Deterministic, named random streams.

Every stochastic element of the simulation (data generation,
perturbation noise, per-tuple cost jitter) draws from its own named
stream, derived from a single master seed.  Adding a new consumer of
randomness therefore never perturbs the draws seen by existing ones,
which keeps experiment results reproducible across code changes.
"""

from __future__ import annotations

import hashlib
import random


class RandomStreams:
    """A factory of independent, deterministic ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return self._streams[name]
