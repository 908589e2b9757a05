"""Physical operators of the iterator-model engine."""

from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator
from repro.engine.operators.exchange import ExchangeProducer
from repro.engine.operators.exchange_consumer import (
    ConsumerRef,
    ExchangeConsumer,
)
from repro.engine.operators.filters import Project, Select
from repro.engine.operators.hashjoin import HashJoin
from repro.engine.operators.opcall import OperationCall
from repro.engine.operators.scan import TableScan
from repro.engine.operators.sink import ResultSink

__all__ = [
    "ConsumerRef",
    "END",
    "EvalContext",
    "ExchangeConsumer",
    "ExchangeProducer",
    "HashJoin",
    "Operator",
    "OperationCall",
    "Project",
    "ResultSink",
    "Select",
    "TableScan",
    "UnaryOperator",
]
