"""Test-support machinery that ships with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
behind the robustness suite: seeded injectors for crashes / kills / hangs,
IO errors and byte-level blob corruption, armed in process
(:func:`~repro.testing.faults.install_injector`) or through the
``REPRO_FAULTS`` / ``REPRO_FAULT_SEED`` environment variables (which is how
they reach a daemon subprocess).  Production code paths consult the
harness through cheap, always-safe hooks: with no plan configured every
hook is a no-op.
"""

from repro.testing.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    active_injector,
    corrupt_file,
    install_injector,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "active_injector",
    "corrupt_file",
    "install_injector",
]
