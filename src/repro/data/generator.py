"""Synthetic protein demo database.

The paper's evaluation uses the OGSA-DQP demo database:
``protein_sequences`` (3000 tuples, modified so every tuple has the
same length) and ``protein_interactions`` (4700 tuples).  This module
generates data with the same shape from a seed, straight into column
lists: ORF identifiers in the yeast systematic-naming style,
fixed-length amino-acid sequences, and interaction pairs referencing
the sequence table's keys.
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


#: ``_orf_name(ordinal)`` depends on ``ordinal`` modulo this,
#: lcm(16 * 400, 1000).
_ORF_NAME_PERIOD = 32_000


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
    with one big-int mask and product.  Two CPython facts make this
    exact: ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``
    for two consecutive Mersenne Twister words ``a`` then ``b``
    (``choices`` picks ``floor(random() * n)``), and ``getrandbits``
    returns those same words, first word least significant, so lane
    ``j`` is ``a_j | b_j << 32``.  In units of 2**-32, ``20 * random()``
    lies in ``[640 * A, 640 * A + 640)`` with ``A = a >> 5``, since
    ``b >> 6 < 2**26`` adds fewer than 640 units, and the float product
    rounds by at most 16 * 2**-21 units.  ``640 * A = 20 * (a & ~31)``,
    so the index is bits 32..36 of that product, byte 4 of the lane,
    unless its low 32 bits lie within 640 units of 2**32.  A chunk with
    any lane within 704 units is decoded lane by lane with CPython's
    float formula, which also settles the seven values where the float
    product rounds up across an integer, ``m = (k * 2**53 - d) / 20``
    with (k, d) in (7, 4), (9, 8), (12, 4), (14, 8), (17, 4), (18, 16),
    (19, 8): CPython picks ``k``.

    The masks die with the returned function.
    """
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * lanes, "little")
    a_mask = ones * 0xFFFFFFE0
    low_word = ones * 0xFFFFFFFF
    margin = ones * 704
    carry = ones << 32
    n = len(AMINO_ACIDS) + 0.0

    def decode(bits: int) -> bytes:
        scaled = (bits & a_mask) * len(AMINO_ACIDS)
        if ((scaled & low_word) + margin) & carry:
            indices = bytes(
                math.floor(((a >> 5) * 67108864.0 + (b >> 6))
                           * (1.0 / 9007199254740992.0) * n)
                for a, b in struct.iter_unpack(
                    "<II", bits.to_bytes(8 * lanes, "little")))
        else:
            indices = scaled.to_bytes(8 * lanes, "little")[4::8]
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
    sequences = []
    for start in range(0, cardinality, per_chunk):
        lanes = min(per_chunk, cardinality - start) * sequence_length
        letters = decode(rng.getrandbits(64 * lanes))[:lanes].decode("ascii")
        sequences += [letters[at:at + sequence_length]
                      for at in range(0, lanes, sequence_length)]
    names = [_orf_name(ordinal)
             for ordinal in range(min(cardinality, _ORF_NAME_PERIOD))]
    orfs = [f"{names[ordinal % _ORF_NAME_PERIOD]}-{ordinal}"
            for ordinal in range(cardinality)]
    return Relation.from_columns("protein_sequences", schema,
                                 [orfs, sequences])


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
    # ORF1 then ORF2 of each pair, pair by pair.
    drawn = [rng.choice(orfs) for _ in range(2 * cardinality)]
    return Relation.from_columns("protein_interactions",
                                 interactions_schema(),
                                 [drawn[0::2], drawn[1::2]])
