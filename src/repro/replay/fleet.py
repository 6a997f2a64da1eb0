"""Process-pool fleet replay over shared columnar buffers.

§4.1 of the paper makes burst inference a *per-session* computation — no
state crosses peering sessions — so a month-scale corpus replay is
embarrassingly parallel: one worker per session, no coordination beyond the
final aggregation.  This driver exploits exactly that:

* each session's input ships to its worker as a **raw-buffer payload**
  (:meth:`~repro.traces.columnar.ColumnarTrace.to_payload` — plain
  ``bytes`` per column, the session's pre-trace RIB as two more column
  buffers over the same interning pool), so the inter-process transport is
  a handful of memcpys, never an object-graph pickle;
* each worker rebuilds the trace with
  :meth:`~repro.traces.columnar.ColumnarTrace.from_payload`, replays it
  through :func:`repro.experiments.month_replay.replay_stream` (SWIFTED or
  speaker-only) and returns the session's
  :class:`~repro.experiments.month_replay.MonthReplayResult` — counters
  plus canonical loss / recovery / reroute multisets;
* the driver aggregates **deterministically**: per-session results are
  ordered by peer AS and the fleet-level multisets are canonical sorted
  forms, so a fleet run is byte-identical to a sequential replay of the
  same corpus — asserted, not assumed, by the parity suite
  (``tests/test_fleet_replay.py``).

The driver is also **self-healing** (see ``src/repro/replay/README.md`` for
the full contract): each job runs under a bounded retry with exponential
backoff + deterministic jitter (:class:`RetryPolicy`), an optional per-job
timeout reclaims hung workers, and a pool lost to a hard worker death
(:class:`~concurrent.futures.BrokenExecutor`) is rebuilt with its in-flight
jobs resubmitted.  ``strict=True`` (the default) raises
:class:`FleetReplayError` once a session exhausts its attempts;
``strict=False`` degrades gracefully instead — surviving sessions aggregate
as usual and the casualties are listed in
:attr:`FleetReplayResult.failed_sessions` (a degraded result changes its
:meth:`~FleetReplayResult.signature`, so it can never pass for a complete
run).  When every retry succeeds the result — signature included — is
byte-identical to a fault-free run.

Workers default to a forked pool (cheap on Linux; the payload is still
shipped explicitly, so a ``spawn`` context works identically).
``workers=1`` — or a single job — replays inline in this process through
the *same* job/worker code path, which is what the parity tests compare
against.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import (
    DEFAULT_REPLAY_CONFIG,
    EventMultiset,
    MonthReplayResult,
    replay_stream,
)
from repro.metrics.tables import format_table
from repro.testing import faults
from repro.traces.columnar import ColumnarTrace, decode_rib, encode_rib
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_columnar_stream,
)
from repro.util.retry import RetryPolicy

__all__ = [
    "FailedSession",
    "FleetReplayError",
    "FleetReplayResult",
    "RetryPolicy",
    "SessionJob",
    "build_session_jobs",
    "format_fleet_result",
    "iter_session_jobs",
    "replay_fleet",
    "replay_jobs",
]


class FleetReplayError(RuntimeError):
    """A session exhausted its retry budget under ``strict=True``."""


@dataclass(frozen=True)
class FailedSession:
    """One session the fleet driver gave up on (``strict=False`` runs).

    ``kind`` is how the *final* attempt died: ``"error"`` (the job raised),
    ``"hang"`` (blew the per-job timeout), ``"broken-pool"`` (its worker
    process died, taking the pool with it).
    """

    peer_as: int
    attempts: int
    kind: str
    error: str


@dataclass(frozen=True)
class SessionJob:
    """One session's replay input in ship-across-processes form.

    ``payload`` is the stream's raw-buffer export; ``rib_prefix`` /
    ``rib_path`` are the pre-trace Adj-RIB-In snapshot encoded as two
    ``u32`` column buffers indexing into the payload's interning pool (the
    RIB is interned *before* the payload export, so every index resolves).
    """

    peer_as: int
    payload: dict
    rib_prefix: bytes
    rib_path: bytes

    @classmethod
    def from_stream(
        cls, peer_as: int, stream: ColumnarTrace, rib: dict
    ) -> "SessionJob":
        """Package a session's stream + RIB snapshot into a job."""
        # Intern the RIB first: it may reference prefixes/paths the message
        # stream never carries, and the payload must contain them.
        prefix_column, path_column = encode_rib(rib, stream.pool)
        return cls(
            peer_as=peer_as,
            payload=stream.to_payload(),
            rib_prefix=prefix_column.tobytes(),
            rib_path=path_column.tobytes(),
        )

    def unpack(self, validate: Optional[str] = None) -> Tuple[ColumnarTrace, dict]:
        """Rebuild the session's ``(stream, rib)`` from the job's buffers."""
        stream = ColumnarTrace.from_payload(self.payload, validate=validate)
        prefix_column = array("I")
        prefix_column.frombytes(self.rib_prefix)
        path_column = array("I")
        path_column.frombytes(self.rib_path)
        return stream, decode_rib(prefix_column, path_column, stream.pool)


@dataclass(frozen=True)
class _ReplayOptions:
    """The replay knobs every worker applies identically."""

    local_as: int = 1
    swifted: bool = True
    swift_config: Optional[SwiftConfig] = None
    chunk_messages: int = 50000
    local_pref: int = 100
    backup_session: bool = True
    kernel_backend: Optional[str] = None
    fault_plan: Optional[faults.FaultPlan] = None
    validate: Optional[str] = None


def _available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``os.cpu_count()`` reports the machine; under cgroup/affinity limits
    (CI runners, containers) ``sched_getaffinity`` is the honest worker
    budget.  Falls back to ``cpu_count`` where unavailable (macOS).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def _replay_job(
    job: SessionJob,
    options: _ReplayOptions,
    attempt: int = 0,
    in_worker: bool = False,
) -> MonthReplayResult:
    """Rebuild one session from its buffers and replay it (worker body).

    Runs in the worker process under the pool driver — and inline for
    ``workers=1`` — so sequential and fleet replay share every instruction
    that matters for parity.  Events are always collected: the multisets
    are what the fleet aggregation is checked against.

    ``attempt`` is the retry ordinal (0 = first try); the fault harness
    keys its self-healing on it, so a spec with ``times=1`` fails the first
    attempt in *any* process and passes the retry.  ``in_worker`` tells the
    harness a supervising driver is watching — only then do ``kill`` /
    ``hang`` faults take the process down for real.
    """
    injector = faults.injector_for(options.fault_plan)
    installed = False
    if options.fault_plan is not None and injector is not None:
        # Make the explicitly-passed plan ambient for the duration of the
        # job, so store/cache hook sites inside the worker see it too.
        faults.install_injector(injector)
        installed = True
    try:
        if injector is not None:
            injector.fire(
                "fleet.worker",
                key=f"session:{job.peer_as}",
                attempt=attempt,
                in_worker=in_worker,
            )
        stream, rib = job.unpack(validate=options.validate)
        return replay_stream(
            stream,
            rib,
            peer_as=job.peer_as,
            local_as=options.local_as,
            swift_config=options.swift_config,
            chunk_messages=options.chunk_messages,
            swifted=options.swifted,
            local_pref=options.local_pref,
            backup_session=options.backup_session,
            collect_events=True,
            kernel_backend=options.kernel_backend,
        )
    finally:
        if installed:
            faults.install_injector(None)


@dataclass
class FleetReplayResult:
    """The aggregated outcome of one fleet replay.

    ``sessions`` is ordered by peer AS regardless of worker completion
    order, and every aggregate below is derived from canonical per-session
    multisets — the whole result is a deterministic function of the corpus,
    whether it was replayed by one process or sixteen.

    ``failed_sessions`` is empty unless a ``strict=False`` run gave up on
    some sessions (the result is then *degraded*: aggregates cover the
    survivors only).  ``retries`` and ``pool_restarts`` count the driver's
    recovery work; neither affects :meth:`signature`.
    """

    workers: int
    wall_seconds: float
    sessions: List[MonthReplayResult] = field(default_factory=list)
    failed_sessions: List[FailedSession] = field(default_factory=list)
    retries: int = 0
    pool_restarts: int = 0

    @property
    def degraded(self) -> bool:
        """True when some sessions were abandoned (``strict=False`` only)."""
        return bool(self.failed_sessions)

    @property
    def session_count(self) -> int:
        """Number of replayed sessions."""
        return len(self.sessions)

    @property
    def message_count(self) -> int:
        """Total messages replayed across the fleet."""
        return sum(result.message_count for result in self.sessions)

    @property
    def losses(self) -> int:
        """Total loss-of-reachability events across the fleet."""
        return sum(result.losses for result in self.sessions)

    @property
    def recoveries(self) -> int:
        """Total recovery events across the fleet."""
        return sum(result.recoveries for result in self.sessions)

    @property
    def reroutes(self) -> int:
        """Total reroute activations across the fleet."""
        return sum(result.reroutes for result in self.sessions)

    @property
    def replay_seconds(self) -> float:
        """Summed per-session replay time (the sequential-equivalent cost)."""
        return sum(result.wall_seconds for result in self.sessions)

    @property
    def messages_per_second(self) -> float:
        """Fleet throughput in messages per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.message_count / self.wall_seconds

    def _merged(self, field_name: str) -> EventMultiset:
        merged: Counter = Counter()
        for result in self.sessions:
            events = getattr(result, field_name)
            if events:
                merged.update(dict(events))
        return tuple(sorted(merged.items()))

    @property
    def loss_events(self) -> EventMultiset:
        """Fleet-wide loss multiset (canonical sorted form)."""
        return self._merged("loss_events")

    @property
    def recovery_events(self) -> EventMultiset:
        """Fleet-wide recovery multiset (canonical sorted form)."""
        return self._merged("recovery_events")

    @property
    def reroute_events(self) -> EventMultiset:
        """Fleet-wide reroute multiset (canonical sorted form)."""
        return self._merged("reroute_events")

    def signature(self) -> tuple:
        """The deterministic content of the whole fleet run.

        Byte-for-byte comparable (e.g. via ``pickle.dumps``) between a
        process-pool run and a sequential run of the same corpus; excludes
        wall-clock fields, the worker count and the retry counters.  A run
        where every retry succeeded is indistinguishable from a fault-free
        one; a *degraded* run appends a marker naming the abandoned
        sessions, so it can never be mistaken for a complete run.
        """
        session_signatures = tuple(result.signature() for result in self.sessions)
        if not self.failed_sessions:
            return session_signatures
        casualties = tuple(sorted(failed.peer_as for failed in self.failed_sessions))
        return (session_signatures, ("degraded", casualties))


def iter_session_jobs(
    config: Optional[SyntheticTraceConfig] = None,
    peer_ases: Optional[Sequence[int]] = None,
) -> Iterator[SessionJob]:
    """Package a synthetic corpus into per-session jobs, lazily.

    Streams come from :func:`cached_columnar_stream` (generated once,
    mmap-reloaded afterwards); RIB snapshots are rebuilt deterministically
    from the generator's topology and interned into each stream's pool.
    Defaults to every peer of the configured fleet.  Yielding one job at a
    time keeps the parent's footprint at O(in-flight sessions) — the pool
    driver submits with a bounded backlog, so a 30-session month corpus
    never has every session's buffers resident at once.
    """
    config = config or DEFAULT_REPLAY_CONFIG
    generator_stream = SyntheticTraceGenerator(config).stream()
    if peer_ases is None:
        peer_ases = [peer.peer_as for peer in generator_stream.peers]
    for peer_as in peer_ases:
        stream = cached_columnar_stream(config, peer_as)
        rib = generator_stream.rib_of(peer_as)
        yield SessionJob.from_stream(peer_as, stream, rib)


def build_session_jobs(
    config: Optional[SyntheticTraceConfig] = None,
    peer_ases: Optional[Sequence[int]] = None,
) -> List[SessionJob]:
    """Eager :func:`iter_session_jobs` for callers that reuse the job list."""
    return list(iter_session_jobs(config, peer_ases=peer_ases))


def _resolve_retry_policy(
    retry: Union[None, int, RetryPolicy], timeout: Optional[float]
) -> RetryPolicy:
    """Normalise the ``retry`` / ``timeout`` knobs into one policy."""
    if retry is None:
        policy = RetryPolicy()
    elif isinstance(retry, RetryPolicy):
        policy = retry
    elif isinstance(retry, int) and not isinstance(retry, bool) and retry >= 0:
        policy = RetryPolicy(max_attempts=retry + 1)
    else:
        raise ValueError(
            f"retry must be None, a retry count >= 0 or a RetryPolicy, got {retry!r}"
        )
    if timeout is not None:
        policy = replace(policy, timeout=timeout)
    return policy


def replay_jobs(
    jobs: Iterable[SessionJob],
    workers: Optional[int] = None,
    local_as: int = 1,
    swifted: bool = True,
    swift_config: Optional[SwiftConfig] = None,
    chunk_messages: int = 50000,
    local_pref: int = 100,
    backup_session: bool = True,
    mp_context: Optional[str] = None,
    kernel_backend: Optional[str] = None,
    strict: bool = True,
    retry: Union[None, int, RetryPolicy] = None,
    timeout: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
    validate: Optional[str] = None,
) -> FleetReplayResult:
    """Replay session jobs, one worker process per session.

    ``jobs`` may be a lazy iterator (see :func:`iter_session_jobs`): the
    pool driver keeps at most ``2 x workers`` jobs in flight, so the
    corpus's buffers never all sit in the parent at once.  ``workers``
    defaults to ``min(job count, usable cpus)`` for sequences and the
    usable-cpu count for iterators of unknown length (affinity-aware, see
    :func:`_available_cpus`); an explicit ``workers`` must be a positive
    integer — ``workers=0`` or a negative count raises :class:`ValueError`.
    ``workers=1`` replays inline through the same worker body, which is the
    sequential baseline the parity tests compare against.  ``mp_context``
    picks the multiprocessing start method (``"fork"`` where available,
    else the platform default).  ``kernel_backend`` selects the
    column-kernel backend in every worker (``None`` auto-selects: numpy
    when importable, stdlib otherwise; see :mod:`repro.core.kernels`) —
    backends never change the result signature, only replay speed.

    Failure handling: every job runs under ``retry`` (``None`` → the
    default :class:`RetryPolicy`; an int ``n`` → ``n`` retries on top of
    the first try; a :class:`RetryPolicy` → used as-is) with exponential
    backoff between attempts; ``timeout`` bounds each pooled attempt
    (hung workers are reclaimed and the job is retried); a pool broken by
    a hard worker death is rebuilt and its in-flight jobs resubmitted.
    ``strict=True`` raises :class:`FleetReplayError` once any session
    exhausts its attempts; ``strict=False`` returns a *degraded* result
    aggregating the survivors, with the casualties in
    :attr:`FleetReplayResult.failed_sessions`.  ``fault_plan`` arms the
    deterministic fault harness (:mod:`repro.testing.faults`) inside every
    worker; ``validate`` (``"strict"`` / ``"lenient"``) turns on payload
    ingestion validation in the worker body.
    """
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, int) or workers < 1
    ):
        raise ValueError(
            f"workers must be a positive integer (or None for auto), got {workers!r}"
        )
    if validate not in (None, "strict", "lenient"):
        raise ValueError(
            f"validate must be None, 'strict' or 'lenient', got {validate!r}"
        )
    policy = _resolve_retry_policy(retry, timeout)
    options = _ReplayOptions(
        local_as=local_as,
        swifted=swifted,
        swift_config=swift_config,
        chunk_messages=chunk_messages,
        local_pref=local_pref,
        backup_session=backup_session,
        kernel_backend=kernel_backend,
        fault_plan=fault_plan,
        validate=validate,
    )
    job_count = len(jobs) if isinstance(jobs, Sequence) else None
    if workers is None:
        workers = _available_cpus()
        if job_count is not None:
            workers = min(workers, job_count)
    workers = max(1, workers if job_count is None else min(workers, max(job_count, 1)))

    begin = time.perf_counter()
    if workers == 1:
        results, failed, retries, restarts = _replay_inline(
            jobs, options, policy, strict
        )
    else:
        results, failed, retries, restarts = _replay_in_pool(
            jobs, options, workers, mp_context, policy, strict
        )
    wall_seconds = time.perf_counter() - begin

    results.sort(key=lambda result: result.peer_as)
    failed.sort(key=lambda failure: failure.peer_as)
    if len(results) <= 1 and not failed:
        workers = 1  # a lone job never left this process
    return FleetReplayResult(
        workers=workers,
        wall_seconds=wall_seconds,
        sessions=results,
        failed_sessions=failed,
        retries=retries,
        pool_restarts=restarts,
    )


def _replay_inline(
    jobs: Iterable[SessionJob],
    options: _ReplayOptions,
    policy: RetryPolicy,
    strict: bool,
) -> Tuple[List[MonthReplayResult], List[FailedSession], int, int]:
    """The ``workers=1`` path: sequential replay with the same retry rules.

    ``kill`` / ``hang`` faults are downgraded to raised errors here
    (``in_worker=False``), so an inline run exercises the retry logic
    without taking the calling process down; per-job timeouts need the
    pool's preemption and do not apply.
    """
    results: List[MonthReplayResult] = []
    failed: List[FailedSession] = []
    retries = 0
    for job in jobs:
        attempt = 0
        while True:
            try:
                results.append(
                    _replay_job(job, options, attempt=attempt, in_worker=False)
                )
                break
            except Exception as error:
                if attempt + 1 < policy.max_attempts:
                    time.sleep(policy.delay(attempt))
                    attempt += 1
                    retries += 1
                    continue
                if strict:
                    raise FleetReplayError(
                        f"session {job.peer_as} failed after {attempt + 1} "
                        f"attempt(s): {error!r}"
                    ) from error
                failed.append(
                    FailedSession(
                        peer_as=job.peer_as,
                        attempts=attempt + 1,
                        kind="error",
                        error=repr(error),
                    )
                )
                break
    return results, failed, retries, 0


def _terminate_pool(pool) -> None:
    """Shut a pool down hard, leaving no worker process behind.

    Used both for reclaiming a broken/hung pool and for the normal exit
    path (where every worker is already idle).  Terminate-then-join is
    what guarantees a worker stuck in an injected hang actually dies
    instead of outliving the driver as a zombie.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def _replay_in_pool(
    jobs: Iterable[SessionJob],
    options: _ReplayOptions,
    workers: int,
    mp_context: Optional[str],
    policy: RetryPolicy,
    strict: bool,
) -> Tuple[List[MonthReplayResult], List[FailedSession], int, int]:
    """Fan jobs over a supervised process pool with a bounded backlog.

    The supervisor tracks a per-future deadline (when the policy has a
    timeout), retries failures with backoff through a not-before-ready
    queue, and rebuilds the pool when it breaks (hard worker death) or
    when a job hangs — resubmitting in-flight work: the hung/broken job is
    charged an attempt, innocent bystanders are requeued uncharged.
    """
    import multiprocessing
    from concurrent.futures import (
        FIRST_COMPLETED,
        BrokenExecutor,
        ProcessPoolExecutor,
        wait,
    )

    if mp_context is None:
        mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(mp_context) if mp_context else None
    backlog = workers * 2
    results: List[MonthReplayResult] = []
    failed: List[FailedSession] = []
    retries = 0
    restarts = 0
    job_iter = iter(jobs)
    exhausted = False
    # future -> (job, attempt, deadline | None)
    pending: dict = {}
    # (not-before monotonic time, job, attempt) — the retry/resubmit queue.
    ready: List[Tuple[float, SessionJob, int]] = []

    def charge(job: SessionJob, attempt: int, kind: str, error: object) -> None:
        """One attempt spent; requeue with backoff or give up on the job."""
        nonlocal retries
        if attempt + 1 < policy.max_attempts:
            retries += 1
            ready.append((time.monotonic() + policy.delay(attempt), job, attempt + 1))
        elif strict:
            raise FleetReplayError(
                f"session {job.peer_as} failed after {attempt + 1} attempt(s) "
                f"({kind}): {error!r}"
            )
        else:
            failed.append(
                FailedSession(
                    peer_as=job.peer_as,
                    attempts=attempt + 1,
                    kind=kind,
                    error=repr(error),
                )
            )

    def drain(future, job: SessionJob, attempt: int) -> bool:
        """Collect a finished future; returns True if it broke the pool."""
        try:
            results.append(future.result())
        except BrokenExecutor as error:
            charge(job, attempt, "broken-pool", error)
            return True
        except Exception as error:
            charge(job, attempt, "error", error)
        return False

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def submit(job: SessionJob, attempt: int) -> None:
        deadline = (
            None if policy.timeout is None else time.monotonic() + policy.timeout
        )
        future = pool.submit(_replay_job, job, options, attempt, True)
        pending[future] = (job, attempt, deadline)

    def rebuild_pool() -> None:
        """Reclaim every worker process and start a fresh pool."""
        nonlocal pool, restarts
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        restarts += 1

    def evacuate(broken_futures: set) -> None:
        """Empty ``pending`` around a pool rebuild.

        Futures named in ``broken_futures`` are charged an attempt; any
        other in-flight job is an innocent bystander and is requeued
        uncharged (completed stragglers keep their results).
        """
        now = time.monotonic()
        for future, (job, attempt, _) in list(pending.items()):
            del pending[future]
            if future in broken_futures:
                continue  # already charged by the caller
            if future.done():
                drain(future, job, attempt)
            else:
                ready.append((now, job, attempt))

    try:
        while True:
            now = time.monotonic()
            for entry in [entry for entry in ready if entry[0] <= now]:
                ready.remove(entry)
                submit(entry[1], entry[2])
            while not exhausted and len(pending) + len(ready) < backlog:
                try:
                    job = next(job_iter)
                except StopIteration:
                    exhausted = True
                    break
                submit(job, 0)
            if not pending and not ready and exhausted:
                break
            if not pending:
                # Only backoff timers remain; sleep until the nearest one.
                time.sleep(max(0.0, min(entry[0] for entry in ready) - time.monotonic()))
                continue

            wakeups = [deadline for (_, _, deadline) in pending.values() if deadline]
            wakeups.extend(entry[0] for entry in ready)
            timeout = (
                max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
            )
            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)

            broken = False
            charged: set = set()
            for future in done:
                job, attempt, _ = pending.pop(future)
                if drain(future, job, attempt):
                    broken = True
                    charged.add(future)
            if broken:
                # The pool is unusable; every other in-flight future will
                # never complete.  Salvage what finished, requeue the rest.
                evacuate(charged)
                rebuild_pool()
                continue

            now = time.monotonic()
            hung = {
                future
                for future, (_, _, deadline) in pending.items()
                if deadline is not None and now >= deadline and not future.done()
            }
            if hung:
                for future in hung:
                    job, attempt, _ = pending.pop(future)
                    charge(job, attempt, "hang", f"no result within {policy.timeout:g}s")
                # A hung worker can only be reclaimed by killing its
                # process, which takes the pool with it.
                evacuate(set())
                rebuild_pool()
    finally:
        _terminate_pool(pool)
    return results, failed, retries, restarts


def replay_fleet(
    config: Optional[SyntheticTraceConfig] = None,
    peer_ases: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    **replay_options,
) -> FleetReplayResult:
    """Replay every session of a (cached) synthetic corpus concurrently.

    The month-replay driver scaled out: streams the per-session jobs from
    :func:`iter_session_jobs` (bounded parent footprint) over
    :func:`replay_jobs`.  Pass ``workers=1`` for the sequential baseline;
    the default corpus is :data:`~repro.experiments.month_replay.DEFAULT_REPLAY_CONFIG`,
    shared with the single-session driver.
    """
    config = config or DEFAULT_REPLAY_CONFIG
    return replay_jobs(
        iter_session_jobs(config, peer_ases=peer_ases),
        workers=workers,
        **replay_options,
    )


def format_fleet_result(result: FleetReplayResult) -> str:
    """Render the fleet counters, one row per session plus totals."""
    rows: List[Tuple] = [
        (
            session.peer_as,
            session.message_count,
            session.reroutes,
            session.losses,
            session.recoveries,
            round(session.wall_seconds, 2),
        )
        for session in result.sessions
    ]
    rows.append(
        (
            "total",
            result.message_count,
            result.reroutes,
            result.losses,
            result.recoveries,
            round(result.wall_seconds, 2),
        )
    )
    title = (
        f"Fleet replay: {result.session_count} sessions, "
        f"{result.workers} workers ({int(result.messages_per_second)} msg/s)"
    )
    if result.degraded:
        casualties = ", ".join(str(f.peer_as) for f in result.failed_sessions)
        title += f" — DEGRADED, lost sessions: {casualties}"
    return format_table(
        ["session", "messages", "reroutes", "losses", "recoveries", "seconds"],
        rows,
        title=title,
    )
