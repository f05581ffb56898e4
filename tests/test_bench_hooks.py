"""The benchmark's layer hooks (perfbench/layers.py) against the package:
on the calls the pair-study and campaign workloads make, every hook finds
its function and every counter reads the arguments and results it is
given. A renamed function or a changed signature or return shape fails
here, where a traced benchmark run would only report it in
trace.hooks_missing.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

from risnoma import experiments as ex  # noqa: E402
from risnoma import tables  # noqa: E402
from risnoma.syslevel import DeploymentConfig  # noqa: E402


def test_hooks_and_counters_hold():
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        # one pair EEPA solves and pairs, and one it leaves in OMA
        for gammas, delta in (((15.0, 3.0), 10.0), ((8.0, 5.0), 60.0)):
            cfg = ex.ExperimentConfig(kind=ex.ExperimentKind.PAIR_STUDY, gammas_db=gammas, delta_deg=(delta,))
            tables.render_csv(ex.pair_study_table(cfg), {"seed": 0})
        cfg = ex.ExperimentConfig(
            kind=ex.ExperimentKind.SYSLEVEL,
            delta_deg=tuple(float(d) for d in range(0, 171, 10)),
            deploy=DeploymentConfig(drops=1),
            cdf_delta_deg=0.0,
        )
        ex.syslevel_tables(cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    counts = tracer.counts
    assert counts["pairing.run_scheme.calls"] == 8
    assert counts["tables.bytes_out"] > 0
    assert counts["syslevel.run_campaign.pairs"] > 0
    assert counts["syslevel.associate_and_budget.entries"] > 0
    assert counts["eepa.dinkelbach_batch.instances"] > 0
    assert counts["experiments.syslevel_tables.cdf_rows"] == 4 * counts["syslevel.run_campaign.pairs"]
