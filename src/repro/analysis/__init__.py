"""Contract-enforcing static analysis for the repro tree.

``python -m repro.analysis`` (see :mod:`repro.analysis.cli`) and the
tier-1 gate ``tests/test_static_analysis.py`` both drive
:func:`repro.analysis.core.run_analysis` over the registered rules:

========================  ====================================================
rule                      contract it machine-checks
========================  ====================================================
``async-safety``          no direct blocking calls inside ``async def``
                          bodies (daemon event loop + watchdog liveness)
``durability-ordering``   persistence goes through ``util/atomic``'s
                          fsync → replace → dir-fsync discipline
``fault-site-registry``   fault-site strings ↔ ``testing/faults.KNOWN_SITES``
                          in both directions
========================  ====================================================

The kernel-purity, parity-pair and bench-schema contracts are checked by
plain tests instead: ``tests/test_contracts.py`` (no numpy under
``src/repro/``, stdlib-only kernels, oracle/twin signatures),
``tests/test_kernels.py`` (kernels leave their column arguments
unchanged) and ``benchmarks/test_bench_record.py`` (every ``BENCH_*.json``
payload carries ``bench_env()``).

Escape hatches: ``# repro: allow(<rule>)`` suppression comments and the
committed ``baseline.json`` of grandfathered findings — see ``README.md``
in this package.
"""

from repro.analysis.core import (
    AnalysisError,
    AnalysisReport,
    Checker,
    Finding,
    ModuleInfo,
    Project,
    REGISTRY,
    default_checkers,
    load_module,
    run_analysis,
)
from repro.analysis.baseline import DEFAULT_BASELINE_PATH, load_baseline

# Importing the checker modules populates REGISTRY via @register.
from repro.analysis import (  # noqa: F401  (imported for registration)
    async_safety,
    durability,
    fault_sites,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Checker",
    "DEFAULT_BASELINE_PATH",
    "Finding",
    "ModuleInfo",
    "Project",
    "REGISTRY",
    "default_checkers",
    "load_baseline",
    "load_module",
    "run_analysis",
]
