"""Relational data model: schemas, provenance-tracked rows, relations."""

from repro.data.batch import Batch
from repro.data.generator import (
    AMINO_ACIDS,
    INTERACTIONS_CARDINALITY,
    SEQUENCE_LENGTH,
    SEQUENCES_CARDINALITY,
    generate_protein_interactions,
    generate_protein_sequences,
    interactions_schema,
    sequences_schema,
)
from repro.data.relation import Relation
from repro.data.schema import Column, Schema
from repro.data.tuples import Row, Tid, make_base_tid

__all__ = [
    "AMINO_ACIDS",
    "Batch",
    "Column",
    "INTERACTIONS_CARDINALITY",
    "Relation",
    "Row",
    "SEQUENCES_CARDINALITY",
    "SEQUENCE_LENGTH",
    "Schema",
    "Tid",
    "generate_protein_interactions",
    "generate_protein_sequences",
    "interactions_schema",
    "make_base_tid",
    "sequences_schema",
]
