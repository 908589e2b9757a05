"""Known hang: a freeze shorter than the failure timeout, under lossy
links, stalls Q1 until a live machine is declared failed.

The same run as (one command)::

    repro-query "select EntropyAnalyser(p.sequence) from protein_sequences p"
        --chaos-freeze compute-2:800:1300 --chaos-drop 0.05 \\
        --chaos-duplicate 0.05 --chaos-delay 0.1 --chaos-delay-ms 30 \\
        --sequences 300 --interactions 400 --seed 0

runs 13,036 simulated seconds (about 34 host seconds) and ends only
because ``data-host`` is falsely declared failed
(``machine-unrecoverable``, after one recovery).  The freeze alone, or
the lossy links alone, finish 300 rows in under 5 simulated seconds, as
do seeds 1 to 3 and the smaller worlds tried (100 to 200 sequences at
seeds 0 to 3).  ROADMAP item 2 (e); not fixed here.
"""

import pytest

from repro.chaos import ChaosConfig, MachineFreeze
from repro.config import AdaptivityConfig, FaultToleranceConfig
from repro.errors import QueryFailedError
from repro.workloads import DemoGrid, DemoGridSpec

QUERY = "select EntropyAnalyser(p.sequence) from protein_sequences p"


@pytest.mark.slow
@pytest.mark.xfail(strict=True, raises=QueryFailedError,
                   reason="a live data host is declared failed after "
                   "13,036 simulated seconds (ROADMAP item 2 (e))")
def test_short_freeze_under_lossy_links_finishes_every_row():
    # What the CLI builds for these flags: two compute machines, no
    # spare, failure detection with the suspect state on.
    grid = DemoGrid(
        DemoGridSpec(sequences_cardinality=300,
                     interactions_cardinality=400, seed=0),
        fault_tolerance=FaultToleranceConfig(enabled=True,
                                             suspect_timeout_ms=1000.0),
        chaos=ChaosConfig.lossy(
            drop_probability=0.05, duplicate_probability=0.05,
            delay_probability=0.1, delay_ms=30.0,
            freezes=(MachineFreeze("compute-2", 800.0, 1300.0),)))
    result = grid.run(QUERY, AdaptivityConfig(policy="paper-A1R2"))
    assert len(result.values()) == 300
    assert result.response_time_ms < 60_000.0
