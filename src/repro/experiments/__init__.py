"""Experiment harnesses: one runner per table / figure of the paper.

Every figure / table module exposes a ``run(...)`` function returning a
result dataclass and a ``format_result(...)`` helper printing the same rows /
series the paper reports, so the benchmarks can regenerate each artefact;
``month_replay`` is the replay driver (``replay_stream``,
``StreamReplayer``) the benchmarks and the live ingest path call:

==============================  =========================================
Paper artefact                  Module
==============================  =========================================
Table 1 (vanilla downtime)      :mod:`repro.experiments.table1`
Fig. 2(a)/(b) (burst stats)     :mod:`repro.experiments.fig2`
Fig. 6(a)/(b) (TPR/FPR)         :mod:`repro.experiments.fig6`
Table 2 (prediction accuracy)   :mod:`repro.experiments.table2`
Fig. 7 (encoding performance)   :mod:`repro.experiments.fig7`
Fig. 8 (learning time CDF)      :mod:`repro.experiments.fig8`
Fig. 9(a) (case-study speedup)  :mod:`repro.experiments.fig9`
§6.2.2/§6.3.2 (simulation)      :mod:`repro.experiments.simulation_validation`
§6.5 (rerouting speed)          :mod:`repro.experiments.rerouting_speed`
§6 (month-scale replay)         :mod:`repro.experiments.month_replay`
==============================  =========================================
"""

from repro.experiments.common import (
    BurstEvaluation,
    burst_corpus,
    cached_corpus,
    evaluate_burst,
)

__all__ = ["BurstEvaluation", "burst_corpus", "cached_corpus", "evaluate_burst"]
