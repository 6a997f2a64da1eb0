"""Deterministic fault injection for the store / cache / ingestion stack.

SWIFT is a robustness system; its reproduction should survive the same
partial-failure conditions in its *own* machinery that the paper studies in
the control plane.  This module is the harness that proves it: seeded
injectors for crashes, hard process kills, hangs, IO errors and
byte-level blob corruption, wired into narrow hooks at the production
call sites.  With no plan configured every hook is a no-op.

The canonical site table is the :data:`KNOWN_SITES` constant below — one
entry per hook, naming its per-call key shape and the kinds that make
sense there.  The ``fault-site-registry`` rule of ``repro.analysis``
checks every site string in the tree (hook calls and textual plans alike)
against it, in both directions.

The ``feed.*`` / ``segment.*`` sites live in the streaming ingestion
daemon (:mod:`repro.ingest`): ``feed.read``'s ``corrupt`` mangles the line
text (a malformed feed line, counted-and-skipped by lenient validation)
and its ``hang`` stalls the reader (exercising the heartbeat watchdog);
``segment.roll`` fires once per roll *phase* — keys
``...:start`` / ``...:sealed`` / ``...:manifest`` — so a test can kill the
daemon between the sealed-segment write, the manifest checkpoint and the
log cleanup, the three windows the crash-recovery contract covers.

Two activation channels, both deterministic:

* **in process** — build a :class:`FaultPlan` (an
  ``InferenceConfig``-style frozen dataclass), wrap it in a
  :class:`FaultInjector` and arm it with :func:`install_injector`;
* **environment** — ``REPRO_FAULTS`` holds the textual plan and
  ``REPRO_FAULT_SEED`` the seed (:meth:`FaultPlan.to_env` /
  :meth:`FaultPlan.from_env`); child processes inherit the environment,
  which is how the ingest crash-recovery tests arm a daemon subprocess
  without touching any API.

Determinism has two axes:

* *which keys fire*: a spec with ``rate < 1`` selects keys by a seeded
  coin — a stable hash of ``(seed, site, key, kind)`` — so the same keys
  fail in every process and every rerun;
* *when they stop*: occurrences are counted per ``(spec, key)`` within
  the process, and a spec fires while
  ``after <= occurrence < after + times``.
  ``after=K`` skips the first ``K`` occurrences — which is how the
  crash-recovery property tests express "``kill -9`` at the K-th seeded
  injection point".

The textual plan grammar (``REPRO_FAULTS``) is ``,``-separated specs of
``kind@site`` followed by optional ``;field=value`` pairs::

    kill@segment.append;after=2;match=feed-1:*
    crash@segment.roll;rate=0.5,io_error@store.read

``site`` and ``match`` are :mod:`fnmatch` patterns (``match`` screens the
per-call key, e.g. ``<feed>:<segment>`` for segment sites or the blob's
file name for store/cache sites).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "FAULTS_ENV",
    "KNOWN_SITES",
    "SEED_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "active_injector",
    "corrupt_file",
    "install_injector",
]

#: Environment variable holding the textual fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable holding the plan seed (decimal integer).
SEED_ENV = "REPRO_FAULT_SEED"

#: The fault kinds the harness can execute.
KINDS = ("crash", "kill", "hang", "io_error", "corrupt")

#: The canonical registry of injection sites: site -> (per-call key shape,
#: kinds that make sense there).  Production hooks and textual plans both
#: address sites by these strings; the ``fault-site-registry`` static rule
#: keeps every usage in the tree and this table in sync, both ways, so a
#: typo'd site (which fails open — the injector simply never fires) cannot
#: ship silently.
KNOWN_SITES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "store.open": ("<.cols file name>", ("io_error",)),
    "store.read": ("<.cols file name>", ("io_error",)),
    "cache.write": ("<cache entry name>", ("io_error", "corrupt")),
    "feed.connect": ("<feed name>", ("crash", "io_error")),
    "feed.read": ("<feed name>", ("io_error", "corrupt", "hang")),
    "segment.append": ("<feed>:<segment>", ("crash", "kill", "io_error")),
    "segment.roll": ("<feed>:<segment>:<phase>", ("crash", "kill", "io_error")),
}


class InjectedFault(RuntimeError):
    """An injected failure (the ``crash`` kind, and ``kill``/``hang``
    downgraded outside a supervised process)."""


class InjectedIOError(InjectedFault, OSError):
    """An injected IO failure — an :class:`OSError`, so production error
    handling (cache-miss degradation, quarantine) treats it like the real
    thing."""


@dataclass(frozen=True)
class FaultSpec:
    """One injector: *kind* at *site*, scoped by key match / rate / times.

    ``times`` bounds how often the spec fires per key, counted against a
    per-process occurrence counter.  ``after`` skips the first ``after`` occurrences before the
    spec arms — ``after=7;times=1`` fires exactly at the 8th occurrence,
    the knob the crash-recovery tests use to place a kill at a seeded
    injection point.  ``rate`` thins the matched keys with a seeded coin,
    so ``rate=0.5`` deterministically fails *the same* half of the keys
    in every process.
    """

    kind: str
    site: str
    times: int = 1
    rate: float = 1.0
    match: str = "*"
    hang_seconds: float = 3600.0
    after: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {KINDS})")

    def to_text(self) -> str:
        """Render the spec in the ``REPRO_FAULTS`` grammar."""
        parts = [f"{self.kind}@{self.site}"]
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.rate != 1.0:
            parts.append(f"rate={self.rate:g}")
        if self.match != "*":
            parts.append(f"match={self.match}")
        if self.hang_seconds != 3600.0:
            parts.append(f"hang={self.hang_seconds:g}")
        if self.after:
            parts.append(f"after={self.after}")
        return ";".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "FaultSpec":
        """Parse one spec of the ``REPRO_FAULTS`` grammar."""
        head, _, tail = text.strip().partition(";")
        kind, at, site = head.partition("@")
        if not at or not kind or not site:
            raise ValueError(f"malformed fault spec {text!r} (expected kind@site[;k=v...])")
        spec = cls(kind=kind.strip(), site=site.strip())
        for pair in filter(None, (piece.strip() for piece in tail.split(";"))):
            name, eq, value = pair.partition("=")
            if not eq:
                raise ValueError(f"malformed fault field {pair!r} in {text!r}")
            name = name.strip()
            if name == "times":
                spec = replace(spec, times=int(value))
            elif name == "rate":
                spec = replace(spec, rate=float(value))
            elif name == "match":
                spec = replace(spec, match=value.strip())
            elif name == "hang":
                spec = replace(spec, hang_seconds=float(value))
            elif name == "after":
                spec = replace(spec, after=int(value))
            else:
                raise ValueError(f"unknown fault field {name!r} in {text!r}")
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the specs to arm — the whole harness configuration.

    Frozen; :meth:`to_env` / :meth:`from_env` are the environment
    round-trip the subprocess tests use.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def to_text(self) -> str:
        """The ``REPRO_FAULTS`` rendering of the specs (seed excluded)."""
        return ",".join(spec.to_text() for spec in self.specs)

    def to_env(self) -> Dict[str, str]:
        """Environment variables that re-create this plan in any process."""
        return {FAULTS_ENV: self.to_text(), SEED_ENV: str(self.seed)}

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a plan from its ``REPRO_FAULTS`` form."""
        specs = tuple(
            FaultSpec.from_text(piece)
            for piece in filter(None, (piece.strip() for piece in text.split(",")))
        )
        return cls(seed=seed, specs=specs)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan configured in the environment, or ``None``."""
        environ = os.environ if environ is None else environ
        text = environ.get(FAULTS_ENV)
        if not text:
            return None
        seed = int(environ.get(SEED_ENV, "0") or "0")
        return cls.from_text(text, seed=seed)


def _coin(seed: int, site: str, key: str, kind: str) -> float:
    """A stable uniform-[0,1) draw for (seed, site, key, kind).

    CRC32-based so it is identical across processes and Python hash
    randomisation — the property that makes ``rate`` select the same keys
    in a worker as in the parent.
    """
    digest = zlib.crc32(f"{seed}|{site}|{key}|{kind}".encode("utf-8"))
    return (digest % 1_000_000) / 1_000_000.0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at production hook sites.

    :meth:`fire` is the single entry point: it decides (deterministically)
    whether a spec applies at this (site, key) and *executes* the
    fault — raising for ``crash``/``io_error``, exiting or sleeping for
    ``kill``/``hang`` inside a supervised process (downgraded to a raise
    elsewhere, so an in-process test never takes the whole interpreter
    down), and returning the spec for ``corrupt`` so the caller can apply
    the byte damage itself (only the writer knows which buffer to hit).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._occurrences: Dict[Tuple[int, str], int] = {}

    def check(self, site: str, key: str = "") -> Optional[FaultSpec]:
        """The first armed spec matching (site, key), or ``None``.

        Purely a decision — no fault is executed, but the per-process
        occurrence counter of each matching (spec, key) pair is consumed.
        """
        for index, spec in enumerate(self.plan.specs):
            if not fnmatchcase(site, spec.site):
                continue
            if not fnmatchcase(key, spec.match):
                continue
            if spec.rate < 1.0 and _coin(self.plan.seed, site, key, spec.kind) >= spec.rate:
                continue
            counter_key = (index, key)
            occurrence = self._occurrences.get(counter_key, 0)
            self._occurrences[counter_key] = occurrence + 1
            if spec.after <= occurrence < spec.after + spec.times:
                return spec
        return None

    def fire(
        self,
        site: str,
        key: str = "",
        in_worker: bool = False,
    ) -> Optional[FaultSpec]:
        """Decide and execute a fault at this hook.

        Returns ``None`` (nothing armed), returns the spec (``corrupt`` —
        the caller applies the damage), or does not return at all: raises
        :class:`InjectedFault` / :class:`InjectedIOError`, or — only with
        ``in_worker=True``, i.e. in a process a supervisor restarts (the
        ingest daemon's ``supervised`` mode) — hard-exits the process
        (``kill``) / blocks (``hang``) so crash recovery and the watchdog
        are exercised for real.
        """
        spec = self.check(site, key)
        if spec is None:
            return None
        if spec.kind == "crash":
            raise InjectedFault(f"injected crash at {site} ({key})")
        if spec.kind == "io_error":
            raise InjectedIOError(f"injected IO error at {site} ({key})")
        if spec.kind == "kill":
            if in_worker:
                os._exit(3)
            raise InjectedFault(
                f"injected kill at {site} ({key}) outside a supervised process"
            )
        if spec.kind == "hang":
            if in_worker:
                time.sleep(spec.hang_seconds)
                raise InjectedFault(f"injected hang at {site} ({key}) outlived its sleep")
            raise InjectedFault(
                f"injected hang at {site} ({key}) outside a supervised process"
            )
        return spec  # corrupt: the caller owns the byte damage


def corrupt_file(path: str, seed: int = 0, offset: Optional[int] = None) -> int:
    """Flip one byte of ``path`` in place; returns the flipped offset.

    The offset is seeded (a stable function of the seed and the file size)
    unless given explicitly, so a corruption test damages the same byte in
    every run.  The flip is ``XOR 0xFF`` — guaranteed to change the byte,
    hence guaranteed to trip a covering checksum.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    if offset is None:
        offset = zlib.crc32(f"corrupt|{seed}|{size}".encode("utf-8")) % size
    # repro: allow(durability-ordering): deliberate in-place byte damage —
    # this helper EXISTS to violate durability, that is the test.
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes((byte[0] ^ 0xFF,)))
    return offset


# -- ambient (environment-configured) injector ------------------------------

_env_cache_key: Optional[Tuple[Optional[str], Optional[str]]] = None
_env_cache_value: Optional[FaultInjector] = None

_installed: Optional[FaultInjector] = None


def install_injector(injector: Optional[FaultInjector]) -> None:
    """Process-locally arm (``None``: disarm) an injector for ambient hooks.

    Every hook site in this process then sees the installed injector's
    plan, without the plan having to travel through the environment.
    """
    global _installed
    _installed = injector


def active_injector() -> Optional[FaultInjector]:
    """The ambient injector, or ``None`` (the common case).

    A process-locally installed injector (:func:`install_injector`) wins;
    otherwise the environment-configured one is used, cached per
    ``(REPRO_FAULTS, REPRO_FAULT_SEED)`` value so production hooks pay two
    dict lookups when the harness is idle — and so occurrence counters
    persist across calls within a process.
    """
    if _installed is not None:
        return _installed
    global _env_cache_key, _env_cache_value
    key = (os.environ.get(FAULTS_ENV), os.environ.get(SEED_ENV))
    if key != _env_cache_key:
        _env_cache_key = key
        plan = FaultPlan.from_env()
        _env_cache_value = FaultInjector(plan) if plan and plan.specs else None
    return _env_cache_value

