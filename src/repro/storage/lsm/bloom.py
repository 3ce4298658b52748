"""Bloom filter for SSTable point-lookup short-circuiting.

Double hashing over blake2b halves — deterministic across processes (unlike
built-in ``hash``), cheap, and with the usual ``m = -n ln p / (ln 2)^2``
sizing for a target false-positive rate.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Tuple


class BloomFilter:
    """Fixed-size bloom filter over byte keys."""

    def __init__(self, num_bits: int, num_hashes: int, bits: bytearray = None):
        if num_bits < 8:
            num_bits = 8
        self.num_bits = num_bits
        self.num_hashes = max(1, num_hashes)
        self._bits = bits if bits is not None else bytearray((num_bits + 7) // 8)

    @staticmethod
    def with_capacity(n_items: int, fp_rate: float = 0.01) -> "BloomFilter":
        n_items = max(1, n_items)
        num_bits = int(-n_items * math.log(fp_rate) / (math.log(2) ** 2))
        num_hashes = max(1, round(num_bits / n_items * math.log(2)))
        return BloomFilter(num_bits, num_hashes)

    def _hashes(self, key: bytes) -> Tuple[int, int]:
        """Double-hashing seeds: bit ``i`` of a key is ``(h1 + i * h2) % num_bits``."""
        digest = hashlib.blake2b(key, digest_size=16).digest()
        # lint: disable=codec-pair — the pack side is the blake2b digest itself; there is no writer half to pair with
        return struct.unpack(">QQ", digest)

    def add(self, key: bytes) -> None:
        h1, h2 = self._hashes(key)
        bits, num_bits = self._bits, self.num_bits
        for _ in range(self.num_hashes):
            pos = h1 % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            h1 += h2

    def __contains__(self, key: bytes) -> bool:
        h1, h2 = self._hashes(key)
        bits, num_bits = self._bits, self.num_bits
        for _ in range(self.num_hashes):
            pos = h1 % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h1 += h2
        return True

    # -- serialisation -------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = struct.pack(">II", self.num_bits, self.num_hashes)
        return header + bytes(self._bits)

    @staticmethod
    def from_bytes(data: bytes) -> "BloomFilter":
        num_bits, num_hashes = struct.unpack(">II", data[:8])
        return BloomFilter(num_bits, num_hashes, bytearray(data[8:]))
