"""Cost model for SOAP/HTTP-style message (de)serialization.

OGSA-DQP shipped tuple buffers as SOAP documents over HTTP; in 2005 the
dominant communication cost was XML (de)serialization CPU time, not
wire time.  This model charges a fixed per-message cost plus a
per-tuple cost on the sending (serialize) and receiving (deserialize)
CPUs, and computes the inflated on-the-wire size.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class SerializationModel:
    """CPU and size costs of encoding tuple buffers as messages.

    Work values are in CPU work units (milliseconds at machine speed
    1.0); sizes are in bytes.
    """

    serialize_per_message: float = 2.0
    serialize_per_tuple: float = 0.25
    deserialize_per_message: float = 1.0
    deserialize_per_tuple: float = 0.12
    envelope_bytes: int = 512
    #: XML markup inflation applied to raw tuple bytes.
    size_inflation: float = 2.5

    def __post_init__(self) -> None:
        values = (self.serialize_per_message, self.serialize_per_tuple,
                  self.deserialize_per_message, self.deserialize_per_tuple,
                  self.envelope_bytes, self.size_inflation)
        if any(v < 0 for v in values):
            raise ConfigurationError(
                f"serialization model values must be non-negative: {self}")

    def serialize_work(self, tuple_count: int) -> float:
        """CPU work to serialize a buffer of ``tuple_count`` tuples."""
        return (self.serialize_per_message
                + self.serialize_per_tuple * tuple_count)

    def deserialize_work(self, tuple_count: int) -> float:
        """CPU work to deserialize a buffer of ``tuple_count`` tuples."""
        return (self.deserialize_per_message
                + self.deserialize_per_tuple * tuple_count)

    def wire_size(self, payload_bytes: int) -> int:
        """On-the-wire size of a message with ``payload_bytes`` of data."""
        return self.envelope_bytes + int(payload_bytes * self.size_inflation)

    def wire_size_batch(self, tuple_count: int, row_bytes: int) -> int:
        """On-the-wire size of a batch envelope of uniform-width rows.

        One envelope amortised over the whole batch — the exchange
        ships ``tuple_count`` rows in a single message, so the size
        equals ``wire_size`` of the concatenated payload.
        """
        return self.wire_size(tuple_count * row_bytes)
