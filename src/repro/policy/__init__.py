"""Pluggable adaptation policies for the monitor/assess/respond loop.

Public surface:

* :class:`AdaptationPolicy` / :class:`Verdict` — the protocol;
* :class:`PolicyRegistry` — name-keyed registry of policy classes;
* :func:`default_registry` — the process-wide registry with every
  built-in policy registered (four paper variants plus the
  hysteresis and PID controllers);
* :func:`create_policy` — instantiate the policy an
  :class:`~repro.config.AdaptivityConfig` selects.
"""

from __future__ import annotations

from repro.policy.base import AdaptationPolicy, Verdict
from repro.policy.hysteresis import HysteresisPolicy
from repro.policy.paper import (
    PaperPolicy,
    paper_policy_name,
    register_paper_policies,
)
from repro.policy.pid import PidPolicy
from repro.policy.registry import PolicyRegistry

#: Names of the non-paper built-in controllers.
POLICY_HYSTERESIS = "hysteresis"
POLICY_PID = "pid"

_default_registry: PolicyRegistry | None = None


def register_builtin_policies(registry: PolicyRegistry) -> None:
    """Register every built-in policy on ``registry``."""
    register_paper_policies(registry)
    registry.register(POLICY_HYSTERESIS, HysteresisPolicy)
    registry.register(POLICY_PID, PidPolicy)


def default_registry() -> PolicyRegistry:
    """The process-wide registry holding all built-in policies."""
    global _default_registry
    if _default_registry is None:
        registry = PolicyRegistry()
        register_builtin_policies(registry)
        _default_registry = registry
    return _default_registry


def create_policy(config) -> AdaptationPolicy:
    """Instantiate the policy ``config.policy_name`` selects."""
    return default_registry().create(config)


__all__ = [
    "AdaptationPolicy",
    "HysteresisPolicy",
    "POLICY_HYSTERESIS",
    "POLICY_PID",
    "PaperPolicy",
    "PidPolicy",
    "PolicyRegistry",
    "Verdict",
    "create_policy",
    "default_registry",
    "paper_policy_name",
    "register_builtin_policies",
    "register_paper_policies",
]
