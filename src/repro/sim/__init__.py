"""Deterministic discrete-event simulation kernel.

A minimal, SimPy-style kernel: generator-based processes wait on
events; the environment advances a simulated clock.  All higher layers
(network, machines, services, query engine) are built as processes on
top of this kernel, so every experiment is reproducible bit-for-bit
from its seed.
"""

from repro.sim.environment import Environment, Process
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.rand import RandomStreams
from repro.sim.resources import Cpu, CpuTask
from repro.sim.stores import Store, StoreGet

__all__ = [
    "AnyOf",
    "Cpu",
    "CpuTask",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Store",
    "StoreGet",
    "Timeout",
]
