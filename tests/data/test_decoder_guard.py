"""The one-word letter decoder at its guard.

``_letter_decoder`` reads each letter from bits 32..36 of
``20 * (a & ~31)``, where ``a`` is the lane's first Mersenne Twister
word, and falls back to CPython's float formula for a chunk with any
lane whose product's low 32 bits lie within the margin of ``2**32``.
The lanes below sit on both sides of every ``k * 2**32``, at the
distances where the second word ``b`` can or cannot carry the exact
draw across it, with the extreme ``a & 31`` and ``b``; each must decode
as ``floor(random() * 20)`` wherever it sits in a chunk.
"""

import math
import random

import pytest

from repro.data.generator import AMINO_ACIDS, _letter_decoder

WORD = (1 << 32) - 1
LANE = (1 << 64) - 1
CHUNK = 5

#: Distances (units of 2**-32 of ``20 * random()``) below ``k * 2**32``;
#: ``20 * (a & ~31)`` is a multiple of 640, so each becomes the nearest
#: product on either side of it.  Those lie a multiple of 128 units from
#: ``k * 2**32``, so a margin anywhere from 512 to 767 decodes alike.
DISTANCES = [0, 1, 639, 640, 703, 704]

#: (k, d): ``m = (k * 2**53 - d) / 20`` is where CPython's float index
#: is k but the exact quotient ``20 * m // 2**53`` is k - 1.
BOUNDARIES = [(7, 4), (9, 8), (12, 4), (14, 8), (17, 4), (18, 16), (19, 8)]


def cpython_index(lane):
    a, b = lane & WORD, lane >> 32
    value = ((a >> 5) * 67108864.0 + (b >> 6)) * 2.0 ** -53
    return math.floor(value * len(AMINO_ACIDS))


def guard_lanes():
    lanes = set()
    for k in range(1, 20):
        for target in [(k << 32) - d for d in DISTANCES] + [(k << 32) + 1]:
            for high in (target // 640, -(-target // 640)):
                for low in (0, 31):
                    for b in (0, WORD):
                        lanes.add((high << 5 | low) | b << 32)
    for k, d in BOUNDARIES:
        m = (k * 2 ** 53 - d) // 20
        lanes.add((m >> 26) << 5 | (m & ((1 << 26) - 1)) << 6 << 32)
    return sorted(lanes)


LANES = guard_lanes()


def test_lanes_reach_both_sides_of_the_guard():
    """Some lanes need the fallback (the product's top bits alone give
    the wrong letter) and some do not, so the test below has teeth."""
    one_word = [((lane & WORD & ~31) * 20) >> 32 for lane in LANES]
    wrong = sum(1 for lane, index in zip(LANES, one_word)
                if index != cpython_index(lane))
    assert 0 < wrong < len(LANES)


@pytest.mark.parametrize("position", range(CHUNK))
def test_guard_lanes_decode_as_cpython(position):
    decode = _letter_decoder(CHUNK)
    ordinary = random.Random(position).getrandbits(64 * CHUNK)
    slot = LANE << 64 * position
    for lane in LANES:
        bits = (ordinary & ~slot) | lane << 64 * position
        expected = bytes(
            ord(AMINO_ACIDS[cpython_index((bits >> 64 * at) & LANE)])
            for at in range(CHUNK))
        assert decode(bits) == expected, hex(lane)
