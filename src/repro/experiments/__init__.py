"""Reproductions of every table and figure in the paper's evaluation.

Run them all from the command line::

    python -m repro.experiments all

or individually (``table1``, ``fig2a``, ``fig2b``, ``fig3a``,
``fig3b``, ``fig4``, ``fig5``, ``overheads``, ``monitoring``,
``recovery``, ``multiquery``, ``chaos``, ``resilience``,
``tournament``, ``tournament-smoke``).
"""

from repro.experiments import (
    chaos,
    fig2,
    fig3,
    fig4,
    fig5,
    multiquery,
    overheads,
    recovery,
    resilience,
    table1,
    tournament,
)
from repro.experiments.harness import (
    ExperimentReport,
    engine_config_for,
    execute,
)
from repro.experiments.report import render

#: Registry of runnable experiments: id -> ``run(jobs=1)``, which sweeps
#: through ``SweepRunner`` and reports under ``experiment_id`` == id.
EXPERIMENTS = {
    "table1": table1.run,
    "fig2a": fig2.run_fig2a,
    "fig2b": fig2.run_fig2b,
    "fig3a": fig3.run_fig3a,
    "fig3b": fig3.run_fig3b,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "multiquery": multiquery.run,
    "overheads": overheads.run_overheads,
    "recovery": recovery.run,
    "monitoring": overheads.run_monitoring_frequency,
    "chaos": chaos.run,
    "resilience": resilience.run,
    "tournament": tournament.run,
    "tournament-smoke": tournament.run_smoke,
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "engine_config_for",
    "execute",
    "render",
]
