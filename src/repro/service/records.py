"""Fixed-size record encodings for the persistent convoy index.

The index persists into an :class:`~repro.storage.lsm.tree.LSMTree`, which
moves 16-byte keys and 16-byte values, so a convoy is decomposed into
several rows sharing one ``convoy_id``:

====================  =========================  =========================
row                   key ``(tag | a, b)``       value
====================  =========================  =========================
head                  ``(HEAD | convoy_id, 0)``  ``(start, end)``
bbox (2 rows)         ``(BBOX | convoy_id, i)``  ``(xmin, ymin)`` / ``(xmax, ymax)``
members (chunked)     ``(MEMBER | id, chunk)``   two oids, ``-1`` padding
====================  =========================  =========================

Keys pack a 16-bit tag above a 48-bit field into the first big-endian
int64, so byte order equals ``(tag, a, b)`` order and one range scan
walks a whole table.  These are exactly the rows a reopen reads back.
Tags 4 and 5 stay reserved: index directories written by older builds
hold temporal and object rows under them, which a reopen ignores.
"""

from __future__ import annotations

import struct
from typing import Iterator, Tuple

_PAIR = struct.Struct(">qq")
_XY = struct.Struct(">dd")

TAG_HEAD = 1
TAG_BBOX = 2
TAG_MEMBER = 3

_TAG_SHIFT = 48
FIELD_LIMIT = 1 << _TAG_SHIFT

#: Member-chunk padding for an odd trailing oid (never a valid object id).
NO_MEMBER = -1


def result_key(tag: int, a: int, b: int) -> bytes:
    """Order-preserving 16-byte key ``(tag, a, b)``."""
    if not 0 <= a < FIELD_LIMIT:
        raise ValueError(f"key field {a} outside [0, 2^48)")
    if b < 0:
        raise ValueError(f"key field {b} must be non-negative")
    return _PAIR.pack((tag << _TAG_SHIFT) | a, b)


def decode_result_key(data: bytes) -> Tuple[int, int, int]:
    hi, b = _PAIR.unpack(data)
    return hi >> _TAG_SHIFT, hi & (FIELD_LIMIT - 1), b


def tag_range(tag: int, a_lo: int = 0, a_hi: int = FIELD_LIMIT - 1) -> Tuple[bytes, bytes]:
    """Key range covering every ``(tag, a, *)`` row with ``a_lo <= a <= a_hi``."""
    return result_key(tag, a_lo, 0), _PAIR.pack((tag << _TAG_SHIFT) | a_hi, 2**62)


def encode_pair(a: int, b: int) -> bytes:
    return _PAIR.pack(a, b)


def decode_pair(data: bytes) -> Tuple[int, int]:
    return _PAIR.unpack(data)


def encode_xy(x: float, y: float) -> bytes:
    return _XY.pack(x, y)


def decode_xy(data: bytes) -> Tuple[float, float]:
    return _XY.unpack(data)


def member_chunks(members: Tuple[int, ...]) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(chunk_no, value)`` rows packing two sorted oids per row."""
    for chunk, start in enumerate(range(0, len(members), 2)):
        pair = members[start : start + 2]
        first = pair[0]
        second = pair[1] if len(pair) == 2 else NO_MEMBER
        yield chunk, _PAIR.pack(first, second)


def unpack_members(chunks: Iterator[bytes]) -> Tuple[int, ...]:
    members = []
    for chunk in chunks:
        first, second = _PAIR.unpack(chunk)
        members.append(first)
        if second != NO_MEMBER:
            members.append(second)
    return tuple(members)
