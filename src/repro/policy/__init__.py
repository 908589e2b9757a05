"""Pluggable adaptation policies for the monitor/assess/respond loop.

Public surface:

* :class:`AdaptationPolicy` / :class:`Verdict` — the protocol;
* :data:`POLICIES` — every controller by name: the paper's four
  A×R variants (``paper-A1R1`` … ``paper-A2R2``, all the base class
  itself) plus the hysteresis and PID controllers;
* :func:`create_policy` — instantiate the policy an
  :class:`~repro.config.AdaptivityConfig` selects.
"""

from __future__ import annotations

from repro.config import ASSESSMENTS, RESPONSES, AdaptivityConfig
from repro.policy.base import AdaptationPolicy, Verdict
from repro.policy.hysteresis import HysteresisPolicy
from repro.policy.pid import PidPolicy

#: Policy name -> class.  The base class *is* the paper's arithmetic,
#: so each ``paper-{assessment}{response}`` name maps to it and the
#: config reads the axes from the name.
POLICIES: dict[str, type] = {
    **{f"paper-{assessment}{response}": AdaptationPolicy
       for assessment in ASSESSMENTS for response in RESPONSES},
    "hysteresis": HysteresisPolicy,
    "pid": PidPolicy,
}


def create_policy(config: AdaptivityConfig) -> AdaptationPolicy:
    """Instantiate the policy ``config.policy_name`` selects."""
    policy = POLICIES[config.policy_name](config)
    policy.name = config.policy_name
    return policy


__all__ = [
    "AdaptationPolicy",
    "HysteresisPolicy",
    "POLICIES",
    "PidPolicy",
    "Verdict",
    "create_policy",
]
