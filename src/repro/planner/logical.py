"""Logical plans: name resolution and operator-tree construction.

The logical plan is the bridge between the AST and the optimizer; it
resolves every column reference against the table schemas and fixes
the shape ``Project([Apply]* (Join(Scanish, Scanish) | Scanish))``
with ``Scanish := [Filter]* Scan`` — exactly the query class the demo
system supports.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.data.schema import Schema, Column
from repro.data.tuples import ColumnPredicate
from repro.errors import PlanningError, SchemaError
from repro.planner.ast import (
    ColumnRef,
    FunctionCall,
    Literal,
    SelectQuery,
)


@dataclasses.dataclass
class LogicalScan:
    """Scan of one base table under a binding name."""

    table_name: str
    binding: str
    schema: Schema
    filters: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class LogicalJoin:
    """Equi-join; ``build`` is the smaller input by catalog estimate."""

    build: LogicalScan
    probe: LogicalScan
    build_key_position: int
    probe_key_position: int
    schema: Schema


@dataclasses.dataclass
class LogicalApply:
    """WS function applied per tuple; appends the result column."""

    function_name: str
    argument_position: int
    schema: Schema


@dataclasses.dataclass
class LogicalAggregation:
    """Final (coordinator-side) grouping and aggregation.

    Positions refer to the *projected* row the compute subplan ships:
    the aggregation runs downstream of the result sink's provenance
    deduplication, so it is exactly-once under every adaptation and
    recovery path by construction.
    """

    #: Positions of the GROUP BY columns within the projected row.
    group_positions: list
    #: (function, projected position or None for count(*)) per call.
    aggregates: list
    #: Select-list order: ("group", i) or ("agg", j) entries.
    output_layout: list
    output_schema: Schema


@dataclasses.dataclass
class LogicalPlan:
    """Resolved logical plan for the supported query class."""

    scans: list
    join: LogicalJoin | None
    applies: list
    project_positions: list
    output_schema: Schema
    aggregation: LogicalAggregation | None = None

    @property
    def is_join_query(self) -> bool:
        return self.join is not None


def _resolve(reference: ColumnRef,
             scans: typing.Sequence[LogicalScan]) -> tuple[LogicalScan, int]:
    """Find the scan providing ``reference`` and the column position."""
    matches = []
    for scan in scans:
        if reference.alias is not None and reference.alias != scan.binding:
            continue
        try:
            position = scan.schema.position_of(reference.column)
        except SchemaError:
            continue
        matches.append((scan, position))
    if not matches:
        raise PlanningError(f"cannot resolve column {reference.name!r}")
    if len(matches) > 1:
        raise PlanningError(f"ambiguous column {reference.name!r}")
    return matches[0]


def _literal_predicate(position: int, op: str, value) -> typing.Callable:
    comparators = {
        "=": lambda a: a == value,
        "!=": lambda a: a != value,
        "<": lambda a: a < value,
        "<=": lambda a: a <= value,
        ">": lambda a: a > value,
        ">=": lambda a: a >= value,
    }
    try:
        comparator = comparators[op]
    except KeyError:
        raise PlanningError(f"unsupported operator {op!r}") from None
    # A structured predicate: behaves exactly like the previous opaque
    # lambda when called on a row, but exposes (position, test) so the
    # columnar Select path can vectorize over the column array.
    return ColumnPredicate(position, comparator, f"col[{position}] {op} {value!r}")


def build_logical_plan(query: SelectQuery,
                       schemas: typing.Mapping[str, Schema],
                       cardinalities: typing.Mapping[str, int]
                       ) -> LogicalPlan:
    """Resolve ``query`` into a logical plan.

    ``schemas``/``cardinalities`` come from the metadata catalog.
    """
    if not 1 <= len(query.tables) <= 2:
        raise PlanningError(
            f"only 1 or 2 tables supported, got {len(query.tables)}")
    scans = []
    for table in query.tables:
        if table.table_name not in schemas:
            raise PlanningError(f"unknown table {table.table_name!r}")
        scans.append(LogicalScan(
            table_name=table.table_name,
            binding=table.binding,
            schema=schemas[table.table_name].with_alias(table.binding)))

    # Push filters down to their scans.
    for condition in query.filter_conditions:
        scan, position = _resolve(condition.left, scans)
        assert isinstance(condition.right, Literal)
        predicate = _literal_predicate(
            position, condition.op, condition.right.value)
        scan.filters.append((condition, predicate))

    join: LogicalJoin | None = None
    joins = query.join_conditions
    if len(query.tables) == 2:
        if len(joins) != 1:
            raise PlanningError(
                "two-table queries need exactly one equi-join predicate")
        if joins[0].op != "=":
            raise PlanningError("only equi-joins are supported")
        left_scan, left_pos = _resolve(joins[0].left, scans)
        right_scan, right_pos = _resolve(joins[0].right, scans)
        if left_scan is right_scan:
            raise PlanningError("join predicate references a single table")
        # Build on the smaller input by catalog cardinality.
        if (cardinalities.get(left_scan.table_name, 0)
                <= cardinalities.get(right_scan.table_name, 0)):
            build, build_pos = left_scan, left_pos
            probe, probe_pos = right_scan, right_pos
        else:
            build, build_pos = right_scan, right_pos
            probe, probe_pos = left_scan, left_pos
        # Column layout downstream of the join: probe columns then
        # build columns (as the hash join emits them).
        schema = probe.schema.concat(build.schema)
        join = LogicalJoin(build, probe, build_pos, probe_pos, schema)
        current_schema = schema
        probe_width = len(probe.schema)

        def position_of(reference: ColumnRef) -> int:
            scan, position = _resolve(reference, scans)
            if scan is probe:
                return position
            return probe_width + position
    elif joins:
        raise PlanningError("join predicate without a second table")
    else:
        current_schema = scans[0].schema

        def position_of(reference: ColumnRef) -> int:
            _scan, position = _resolve(reference, scans)
            return position

    if query.is_aggregate:
        return _build_aggregate_plan(query, scans, join, current_schema,
                                     position_of)
    if query.group_by:
        raise PlanningError("GROUP BY requires aggregate select items")

    applies: list[LogicalApply] = []
    project_positions: list[int] = []
    output_columns: list[Column] = []
    for item in query.items:
        if isinstance(item, FunctionCall):
            argument_position = position_of(item.argument)
            result_column = Column(item.function_name.lower(), "float")
            current_schema = Schema(
                list(current_schema.columns) + [result_column])
            applies.append(LogicalApply(
                item.function_name, argument_position, current_schema))
            project_positions.append(len(current_schema) - 1)
            output_columns.append(result_column)
        else:
            position = position_of(item)
            project_positions.append(position)
            output_columns.append(current_schema.columns[position])
    return LogicalPlan(
        scans=scans,
        join=join,
        applies=applies,
        project_positions=project_positions,
        output_schema=Schema(output_columns))


def _unique_name(base: str, taken: set) -> str:
    name = base
    counter = 2
    while name in taken:
        name = f"{base}_{counter}"
        counter += 1
    taken.add(name)
    return name


def _build_aggregate_plan(query: SelectQuery, scans, join,
                          current_schema: Schema,
                          position_of) -> LogicalPlan:
    """Plan a GROUP BY / aggregate query.

    The compute subplan evaluates any WS calls and projects exactly the
    group-by columns plus the aggregate inputs; grouping itself happens
    at the coordinator over the deduplicated result stream.
    """
    from repro.planner.ast import AggregateCall, ColumnRef, FunctionCall, Star

    applies: list[LogicalApply] = []
    schema = current_schema
    apply_cache: dict = {}
    column_names = set(current_schema.names())

    def add_apply(call: FunctionCall) -> int:
        nonlocal schema
        argument_position = position_of(call.argument)
        cache_key = (call.function_name, argument_position)
        if cache_key in apply_cache:
            # min(Ws(x)) and max(Ws(x)) share one WS evaluation.
            return apply_cache[cache_key]
        result_column = Column(
            _unique_name(call.function_name.lower(), column_names),
            "float")
        schema = Schema(list(schema.columns) + [result_column])
        applies.append(LogicalApply(
            call.function_name, argument_position, schema))
        apply_cache[cache_key] = len(schema) - 1
        return apply_cache[cache_key]

    group_source_positions = [position_of(ref) for ref in query.group_by]

    # Resolve each select item to a source position (or None for *).
    resolved: list[tuple] = []   # ("group", source_pos) | ("agg", f, pos)
    for item in query.items:
        if isinstance(item, ColumnRef):
            position = position_of(item)
            if position not in group_source_positions:
                raise PlanningError(
                    f"non-aggregate column {item.name!r} must appear "
                    "in GROUP BY")
            resolved.append(("group", position))
        elif isinstance(item, AggregateCall):
            function = item.function_name.lower()
            if isinstance(item.argument, Star):
                if function != "count":
                    raise PlanningError(
                        f"'*' is only valid in count(*), not {function}")
                resolved.append(("agg", function, None))
            elif isinstance(item.argument, FunctionCall):
                resolved.append(("agg", function,
                                 add_apply(item.argument)))
            else:
                resolved.append(("agg", function,
                                 position_of(item.argument)))
        else:
            raise PlanningError(
                "plain WS calls cannot be mixed with aggregates; wrap "
                "them in an aggregate or drop the aggregation")

    # The compute projection: group columns then aggregate inputs.
    projected: list[int] = []
    for position in group_source_positions:
        if position not in projected:
            projected.append(position)
    for entry in resolved:
        if entry[0] == "agg" and entry[2] is not None:
            if entry[2] not in projected:
                projected.append(entry[2])
    if not projected:
        # count(*) with no grouping still needs one column to ship.
        projected.append(0)
    index_of = {position: i for i, position in enumerate(projected)}

    group_positions = [index_of[p] for p in group_source_positions]
    aggregates: list[tuple] = []
    output_layout: list[tuple] = []
    output_columns: list[Column] = []
    taken: set = set()
    for entry in resolved:
        if entry[0] == "group":
            group_index = group_source_positions.index(entry[1])
            output_layout.append(("group", group_index))
            column = schema.columns[entry[1]]
            output_columns.append(Column(
                _unique_name(column.name, taken), column.type,
                column.size_bytes))
        else:
            _tag, function, position = entry
            agg_index = len(aggregates)
            aggregates.append(
                (function,
                 index_of[position] if position is not None else None))
            if position is None:
                base = "count_star"
            else:
                base = f"{function}_{schema.columns[position].name}"
            column_type = "int" if function == "count" else "float"
            output_columns.append(Column(
                _unique_name(base, taken), column_type))
            output_layout.append(("agg", agg_index))

    output_schema = Schema(output_columns)
    aggregation = LogicalAggregation(
        group_positions=group_positions,
        aggregates=aggregates,
        output_layout=output_layout,
        output_schema=output_schema)
    return LogicalPlan(
        scans=scans,
        join=join,
        applies=applies,
        project_positions=projected,
        output_schema=output_schema,
        aggregation=aggregation)
