"""Synthetic protein demo database.

The paper's evaluation uses the OGSA-DQP demo database:
``protein_sequences`` (3000 tuples, modified so every tuple has the
same length) and ``protein_interactions`` (4700 tuples).  This module
generates data with the same shape from a seed: ORF identifiers in the
yeast systematic-naming style, fixed-length amino-acid sequences, and
interaction pairs referencing the sequence table's keys.
"""

from __future__ import annotations

import math
import random
import struct

from repro.data.relation import Relation
from repro.data.schema import Column, Schema

#: The 20 standard amino-acid one-letter codes.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

#: Default sizes matching the paper (§3.2).
SEQUENCES_CARDINALITY = 3000
INTERACTIONS_CARDINALITY = 4700
SEQUENCE_LENGTH = 256

#: ``bytes.translate`` table from a draw's index to its letter.
_LETTER_OF_INDEX = bytes.maketrans(
    bytes(range(len(AMINO_ACIDS))), AMINO_ACIDS.encode("ascii"))

#: Lanes (64-bit slots, one letter each) drawn per ``getrandbits``
#: call: big enough that the per-chunk Python overhead vanishes, small
#: enough that the chunk's big ints stay in cache.
_CHUNK_LANES = 8192


def sequences_schema(sequence_length: int = SEQUENCE_LENGTH) -> Schema:
    """Schema of ``protein_sequences``: (ORF, sequence)."""
    return Schema([
        Column("ORF", "str", 16),
        Column("sequence", "str", sequence_length),
    ])


def interactions_schema() -> Schema:
    """Schema of ``protein_interactions``: (ORF1, ORF2)."""
    return Schema([
        Column("ORF1", "str", 16),
        Column("ORF2", "str", 16),
    ])


def _orf_name(ordinal: int) -> str:
    """Yeast-style systematic ORF name, e.g. ``YAL001C``."""
    chromosome = chr(ord("A") + (ordinal // 400) % 16)
    arm = "L" if (ordinal // 200) % 2 == 0 else "R"
    strand = "C" if ordinal % 2 == 0 else "W"
    return f"Y{chromosome}{arm}{ordinal % 1000:03d}{strand}"


def _letter_decoder(lanes: int):
    """Decode ``rng.getrandbits(64 * lanes)`` into the letters that
    ``rng.choices(AMINO_ACIDS, k=lanes)`` would have drawn.

    Each 64-bit lane holds one draw, and all lanes are decoded at once
    with big-int masks and shifts.  Two CPython facts make this exact:
    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` for two
    consecutive Mersenne Twister words ``a`` then ``b`` (``choices``
    picks ``floor(random() * n)``), and ``getrandbits`` returns those
    same words, first word least significant.  So lane ``j`` is
    ``a_j | b_j << 32``, and with ``m = (a >> 5) << 26 | b >> 6`` the
    index is the top bits of ``20 * m``.  The float product rounds up
    to the next integer where the exact quotient does not for seven
    values, ``m = (k * 2**53 - d) / 20`` with (k, d) in (7, 4), (9, 8),
    (12, 4), (14, 8), (17, 4), (18, 16), (19, 8): CPython picks ``k``.
    Rounding moves ``20 * m`` by at most half an ulp below 20, 16
    units, so a chunk with any lane within 256 units below a multiple
    of 2**53 is decoded lane by lane with CPython's float formula.

    The masks die with the returned function.
    """
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * lanes, "little")
    a_mask = ones * 0xFFFFFFE0
    b_mask = ones * (0x3FFFFFF << 38)
    # m_j goes to bits 38..90 of lane j: b_j >> 6 stays put and a_j >> 5
    # moves up into the cleared bits 0..26 of lane j + 1.  20 * m_j then
    # stays below bit 96, clear of m_{j+1} at bit 102, so one product
    # scales every lane and leaves lane j's index at bits 91..95.
    low_part = ones * (((1 << 53) - 1) << 38)
    margin = ones * (256 << 38)
    carry = ones << 91
    n = len(AMINO_ACIDS) + 0.0

    def decode(bits: int) -> bytes:
        scaled = ((bits & b_mask) | (bits & a_mask) << 59) * len(AMINO_ACIDS)
        if ((scaled & low_part) + margin) & carry:
            indices = bytes(
                math.floor(((a >> 5) * 67108864.0 + (b >> 6))
                           * (1.0 / 9007199254740992.0) * n)
                for a, b in struct.iter_unpack(
                    "<II", bits.to_bytes(8 * lanes, "little")))
        else:
            # Byte 0 of each lane is now its index: bits 5..10 are clear.
            indices = (scaled >> 91).to_bytes(8 * lanes, "little")[::8]
        return indices.translate(_LETTER_OF_INDEX)

    return decode


def generate_protein_sequences(
        rng: random.Random,
        cardinality: int = SEQUENCES_CARDINALITY,
        sequence_length: int = SEQUENCE_LENGTH) -> Relation:
    """The ``protein_sequences`` table with fixed-length sequences.

    Byte-identical to drawing each sequence with
    ``"".join(rng.choices(AMINO_ACIDS, k=sequence_length))``, and
    leaves ``rng`` in the same state, but draws whole chunks of rows
    with one ``getrandbits`` call (see :func:`_letter_decoder`).  That
    relies on ``random.Random``'s own generator, so a subclass, which
    may override ``random()``, is rejected.
    """
    if type(rng) is not random.Random:
        raise TypeError(f"rng must be exactly random.Random, "
                        f"got {type(rng).__name__}")
    if sequence_length < 1:
        raise ValueError(f"sequence_length must be >= 1: {sequence_length}")
    schema = sequences_schema(sequence_length)
    per_chunk = max(1, _CHUNK_LANES // sequence_length)
    decode = _letter_decoder(per_chunk * sequence_length)
    rows = []
    for start in range(0, cardinality, per_chunk):
        count = min(per_chunk, cardinality - start)
        lanes = count * sequence_length
        letters = decode(rng.getrandbits(64 * lanes))[:lanes].decode("ascii")
        for offset in range(count):
            ordinal = start + offset
            at = offset * sequence_length
            rows.append((f"{_orf_name(ordinal)}-{ordinal}",
                         letters[at:at + sequence_length]))
    return Relation.from_values("protein_sequences", schema, rows)


def generate_protein_interactions(
        rng: random.Random,
        sequences: Relation,
        cardinality: int = INTERACTIONS_CARDINALITY) -> Relation:
    """The ``protein_interactions`` table referencing ``sequences``.

    ORF1 values are drawn from the sequence table's keys so the demo
    join (Q2) has full match semantics, as its 4700-tuple output in the
    paper suggests.
    """
    orfs = sequences.column_values("ORF")
    if not orfs:
        raise ValueError("sequences relation is empty")
    rows = []
    for _ in range(cardinality):
        orf1 = rng.choice(orfs)
        orf2 = rng.choice(orfs)
        rows.append((orf1, orf2))
    return Relation.from_values(
        "protein_interactions", interactions_schema(), rows)
