"""The bulk sequence generator against the ``rng.choices`` build.

``generate_protein_sequences`` draws whole chunks of rows with one
``getrandbits`` call and decodes the letters with big-int arithmetic.
Its contract is byte-identity with drawing each row by
``"".join(rng.choices(AMINO_ACIDS, k=L))``, including the generator's
state afterwards (so the interaction table that follows draws the same
pairs).  The reference build below is that loop.
"""

import hashlib
import math
import random

import pytest

from repro.data.generator import (
    AMINO_ACIDS,
    _CHUNK_LANES,
    _letter_decoder,
    generate_protein_sequences,
)
from repro.workloads import DemoGrid, DemoGridSpec

LENGTHS = [1, 7, 8, 16, 24, 256, 257]
SEEDS = [0, 1, 2]


def reference_rows(rng, cardinality, length):
    return ["".join(rng.choices(AMINO_ACIDS, k=length))
            for _ in range(cardinality)]


def assert_same_draws(seed, cardinality, length):
    bulk, reference = random.Random(seed), random.Random(seed)
    table = generate_protein_sequences(bulk, cardinality, length)
    assert table.column_values("sequence") == reference_rows(
        reference, cardinality, length)
    assert bulk.getstate() == reference.getstate()


@pytest.mark.parametrize("length", LENGTHS, ids=lambda n: f"L{n}")
@pytest.mark.parametrize("rows", ["1", "chunk-1", "chunk", "chunk+1"])
def test_equals_choices_build(length, rows):
    chunk = _CHUNK_LANES // length
    cardinality = {"1": 1, "chunk-1": chunk - 1, "chunk": chunk,
                   "chunk+1": chunk + 1}[rows]
    for seed in SEEDS:
        assert_same_draws(seed, cardinality, length)


def lane_of(m):
    """The 64-bit lane whose two MT words make ``random()`` = m / 2**53."""
    a = (m >> 26) << 5
    b = (m & ((1 << 26) - 1)) << 6
    return a | b << 32


#: (k, d): ``m = (k * 2**53 - d) / 20`` is where CPython's float index
#: is k but the exact quotient ``20 * m // 2**53`` is k - 1.
BOUNDARIES = [(7, 4), (9, 8), (12, 4), (14, 8), (17, 4), (18, 16), (19, 8)]


@pytest.mark.parametrize("k,d", BOUNDARIES)
def test_boundary_lanes_follow_cpython_float_rounding(k, d):
    m = (k * 2 ** 53 - d) // 20
    floor_index = math.floor(m * 2.0 ** -53 * len(AMINO_ACIDS))
    assert (floor_index, (20 * m) >> 53) == (k, k - 1)
    ordinary = random.Random(k).getrandbits(64 * 5)
    decode = _letter_decoder(5)
    for position in range(5):
        slot = ((1 << 64) - 1) << 64 * position
        bits = (ordinary & ~slot) | lane_of(m) << 64 * position
        letters = decode(bits)
        assert letters[position] == ord(AMINO_ACIDS[k])
        # The other lanes of the chunk still decode as random() would.
        for other in range(5):
            lane = (bits >> 64 * other) & ((1 << 64) - 1)
            a, b = lane & 0xFFFFFFFF, lane >> 32
            value = ((a >> 5) * 67108864.0 + (b >> 6)) / 2 ** 53
            assert letters[other] == ord(
                AMINO_ACIDS[math.floor(value * len(AMINO_ACIDS))])


def test_subclass_rejected():
    class Seeded(random.Random):
        pass

    with pytest.raises(TypeError):
        generate_protein_sequences(Seeded(0), 3, 8)


#: sha256 over ``repr((row.values, row.tid))`` of the default grid's two
#: tables in order: the same seed gives the same bytes everywhere.
DATASET_SHA256 = {
    0: "fc3be20f6ebfcc802c3f0d940508e743b0ba6ad463c037ff56457a71bfd22f8f",
    1: "19424e44856ae2edededc7cbdabb4487a9a8226b6baccd5c7c04ebb438439791",
}


@pytest.mark.parametrize("seed", sorted(DATASET_SHA256))
def test_default_dataset_pinned(seed):
    grid = DemoGrid(DemoGridSpec(seed=seed))
    digest = hashlib.sha256()
    for name in ("protein_sequences", "protein_interactions"):
        for row in grid.gds_map[name].relation.rows:
            digest.update(repr((row.values, row.tid)).encode())
    assert digest.hexdigest() == DATASET_SHA256[seed]


@pytest.mark.slow
def test_benchmark_sized_table_equals_choices_build():
    assert_same_draws(0, 60_412, 256)
