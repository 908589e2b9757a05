"""A relation reads the same however it was built.

``Relation`` stores one value list per column plus a tid list; rows
are built lazily from them.  Building from value rows, from ``Row``
objects, by ``append`` or from columns must give the same rows, order,
blocks, columns and cardinality, and an ``append`` after the rows were
read must show in both the rows and the blocks.
"""

import pytest

from repro.data import Column, Relation, Row, Schema, make_base_tid
from repro.errors import SchemaError

SCHEMA = Schema([Column("k", "int"), Column("name", "str")])


def values(count):
    return [(ordinal * 7 % 5, f"n{ordinal}") for ordinal in range(count)]


def rows(count):
    return [Row(value, make_base_tid("t", ordinal))
            for ordinal, value in enumerate(values(count))]


def builds(count):
    appended = Relation("t", SCHEMA)
    for row in rows(count):
        appended.append(row)
    return {
        "from_values": Relation.from_values("t", SCHEMA, values(count)),
        "rows": Relation("t", SCHEMA, rows(count)),
        "append": appended,
        "from_columns": Relation.from_columns(
            "t", SCHEMA, [list(column) for column in zip(*values(count))]
            or [[], []]),
    }


def observe(relation):
    count = relation.cardinality
    blocks = {}
    for start, size in [(0, 0), (0, 1), (0, count), (0, count + 3),
                        (max(count - 1, 0), 1), (count, 2), (1, count)]:
        block = relation.read_block(start, size)
        blocks[start, size] = ([row.values for row in block.rows],
                               [row.tid for row in block.rows],
                               [block.column(p) for p in range(2)])
    return {
        "rows": [(row.values, row.tid) for row in relation.rows],
        "iterated": [(row.values, row.tid) for row in relation],
        "blocks": blocks,
        "columns": (relation.column_values("k"),
                    relation.column_values("name")),
        "cardinality": count,
    }


@pytest.mark.parametrize("count", [0, 1, 6])
def test_every_build_reads_the_same(count):
    observed = {name: observe(relation)
                for name, relation in builds(count).items()}
    reference = observed.pop("from_values")
    assert reference["cardinality"] == count
    assert reference["rows"] == [(row.values, row.tid) for row in rows(count)]
    assert reference["iterated"] == reference["rows"]
    for name, seen in observed.items():
        assert seen == reference, name


@pytest.mark.parametrize("build", ["from_values", "rows", "append"])
def test_ragged_row_raises(build):
    ragged = [(1, "a"), (2,), (3, "c")]
    with pytest.raises(SchemaError):
        if build == "from_values":
            Relation.from_values("t", SCHEMA, ragged)
        elif build == "rows":
            Relation("t", SCHEMA, [Row(v, str(i))
                                   for i, v in enumerate(ragged)])
        else:
            relation = Relation("t", SCHEMA)
            for ordinal, value in enumerate(ragged):
                relation.append(Row(value, str(ordinal)))


@pytest.mark.parametrize("columns", [[[1, 2]], [[1], ["a"], [2]],
                                     [[1, 2], ["a"]]],
                         ids=["too-few", "too-many", "ragged"])
def test_bad_columns_raise(columns):
    with pytest.raises(SchemaError):
        Relation.from_columns("t", SCHEMA, columns)


def test_append_after_rows_were_read():
    relation = Relation.from_values("t", SCHEMA, values(3))
    assert len(relation.rows) == 3
    late = Row((9, "late"), "t#late")
    relation.append(late)
    assert relation.rows[-1] == late
    assert list(relation)[-1] == late
    assert relation.cardinality == 4
    block = relation.read_block(2, 5)
    assert [row.tid for row in block.rows] == ["t#2", "t#late"]
    assert block.rows[-1] == late
    assert relation.column_values("name")[-1] == "late"


def test_column_values_is_a_copy():
    relation = Relation.from_values("t", SCHEMA, values(2))
    relation.column_values("k").append(99)
    assert relation.cardinality == 2
    assert relation.column_values("k") == [0, 2]
