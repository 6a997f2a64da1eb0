"""Contract-enforcing static analysis for the repro tree.

``python -m repro.analysis`` (see :mod:`repro.analysis.cli`) and the
tier-1 gate ``tests/test_static_analysis.py`` both drive
:func:`repro.analysis.core.run_analysis` over the registered rules:

========================  ====================================================
rule                      contract it machine-checks
========================  ====================================================
``kernel-purity``         kernels never import interning tables or mutate
                          column views; nothing under ``src/repro/``
                          imports numpy
``parity-pair``           reference/optimized twins keep compatible public
                          methods and signatures
``async-safety``          no direct blocking calls inside ``async def``
                          bodies (daemon event loop + watchdog liveness)
``durability-ordering``   persistence goes through ``util/atomic``'s
                          fsync → replace → dir-fsync discipline
``fault-site-registry``   fault-site strings ↔ ``testing/faults.KNOWN_SITES``
                          in both directions
``bench-schema``          ``BENCH_*.json`` writers stamp artifacts with
                          ``benchmarks/conftest.bench_env()``
========================  ====================================================

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
    bench_schema,
    durability,
    fault_sites,
    kernel_purity,
    parity,
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
