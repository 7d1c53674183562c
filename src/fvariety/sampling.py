"""Deterministic, independently derivable random streams.

A stream is identified by (base_seed, stream_index); rebuilding a stream
with the same identity replays the same draw sequence.  Derived streams
hash arbitrary tokens (trial numbers, grid labels) into a fresh index, so
adding points to an experiment grid never perturbs existing draws.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .distributions import _shape_count
from .errors import DomainError


def _token_digest(base_seed: int, stream_index: int, tokens: tuple) -> int:
    material = repr((base_seed, stream_index) + tokens).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


@dataclass(eq=False)
class RandomStream:
    """A single-owner source of reproducible randomness.

    Draws advance the stream; two streams with equal (base_seed,
    stream_index) produce identical sequences.  Streams with distinct
    indices are statistically independent (SeedSequence spawn keys).
    """

    base_seed: int
    stream_index: int = 0
    _generator: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # SeedSequence takes only non-negative integer entropy; Python ints,
        # since spawn hashes their reprs
        base_seed = _shape_count("seed", self.base_seed)
        if base_seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {base_seed!r}")
        self.base_seed = base_seed
        self.stream_index = _shape_count("stream_index", self.stream_index)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(
                entropy=self.base_seed,
                spawn_key=(
                    self.stream_index & 0xFFFFFFFF,
                    (self.stream_index >> 32) & 0xFFFFFFFF,
                ),
            )
            self._generator = np.random.default_rng(seq)
        return self._generator

    def spawn(self, *tokens: object) -> "RandomStream":
        """A fresh independent stream keyed by this stream plus ``tokens``.

        Tokens are hashed with SHA-256 over their reprs, so the derivation
        is stable across processes and interpreter runs.
        """
        return RandomStream(
            base_seed=self.base_seed,
            stream_index=_token_digest(self.base_seed, self.stream_index, tokens),
        )
