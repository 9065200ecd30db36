"""The mp pool: forked shard workers, with optional fault recovery.

:class:`ShardSupervisor` is the pool that
:func:`~repro.shard.executor.barrier_loop` drives for the mp backend —
the same loop that drives the inline pool.  It forks one worker per
shard, sends each the epoch's pickled batch, waits for every reply
under a bounded deadline and tears the workers down (join, terminate,
kill, close) on every exit path.  A worker that dies or stalls raises a
typed :class:`~repro.shard.recovery.ShardWorkerCrash` /
:class:`~repro.shard.recovery.ShardWorkerTimeout` — never a hang.

With a :class:`~repro.shard.recovery.RecoveryConfig` the pool also
*recovers* instead of raising:

* every epoch's injection bytes — the very bytes sent over the pipes —
  are appended to an :class:`~repro.shard.recovery.EpochJournal` before
  the send, and every worker's outbox digest as its reply arrives;
* the dead or stalled process is reaped and a replacement is forked
  after a seeded exponential backoff;
* the replacement rebuilds its replica from the same workload bytes and
  **replays** the journaled injection history to the current barrier —
  determinism guarantees it reaches the exact state the original had,
  so the barrier protocol resumes and the final K-shard digest is
  byte-identical to the fault-free run;
* when the run-wide restart budget is exhausted the run *degrades*
  deterministically: every worker is killed and the barrier loop
  re-executes the workload from scratch on the inline pool, flagged
  ``degraded`` in stats — never a crash.

Without one (``recovery=None``) the pool keeps no journal, computes no
outbox digest and injects no faults, so a plain mp run pays nothing for
supervision.

Fault injection (:class:`~repro.shard.recovery.FaultPlan`) is applied
by the supervisor itself at exact protocol points, so chaos campaigns
are reproducible: ``kill`` lands right before the epoch send (death
detected immediately), ``stall`` suspends the worker so the reply
deadline trips, ``kill-after-reply`` lands between barriers (death
detected at the next send or at collect).

With ``obs`` on, a recovering supervisor keeps its own flight recorder
and span tracer (shard id ``K``, span ids rebased past every worker's
range) so restarts, replays and degradation appear in the merged
telemetry next to the worker-side streams.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from .executor import ShardWorkload, _InlinePool, _worker_main, barrier_loop
from .partition import ShardPlan
from .recovery import (DEFAULT_BARRIER_DEADLINE_S, FAULT_KILL,
                       FAULT_KILL_AFTER_REPLY, FAULT_STALL, EpochJournal,
                       RecoveryConfig, RestartBudgetExhausted,
                       ShardWorkerCrash, ShardWorkerError,
                       ShardWorkerTimeout, outbox_digest)

#: How each fault kind reads in the supervisor's flight notes.
_FAULT_SIGNALS = {FAULT_KILL: "SIGKILL", FAULT_STALL: "SIGSTOP",
                  FAULT_KILL_AFTER_REPLY: "SIGKILL-after-reply"}


class _Worker:
    """One live shard worker: its process, pipe and generation."""

    __slots__ = ("shard_index", "proc", "conn", "generation")

    def __init__(self, shard_index: int, proc, conn, generation: int):
        self.shard_index = shard_index
        self.proc = proc
        self.conn = conn
        self.generation = generation


class ShardSupervisor:
    """The mp pool :func:`~repro.shard.executor.barrier_loop` drives:
    owns the forked workers and, under recovery, the epoch journal and
    the restart ladder."""

    backend = "mp"

    def __init__(self, workload: ShardWorkload, plan: ShardPlan,
                 obs: bool, config: Optional[RecoveryConfig], mp_ctx):
        self.plan = plan
        self.obs = obs
        self.config = config
        self.mp_ctx = mp_ctx
        self.workload_bytes = pickle.dumps(workload)
        self.workers: List[Optional[_Worker]] = [None] * plan.k
        self.deadline_s = (config.barrier_deadline_s if config is not None
                           else DEFAULT_BARRIER_DEADLINE_S)
        #: The journal exists only under recovery; ``None`` is the plain
        #: mp run, where any worker failure raises.
        self.journal = EpochJournal(plan.k) if config is not None else None
        self.backoff = (config.backoff_rng(workload.seed)
                        if config is not None else None)
        # recovery accounting
        self.restarts = 0
        self.restarts_by_shard = [0] * plan.k
        self.generations = [0] * plan.k
        self.stall_kills = 0
        self.crashes = 0
        self.replayed_epochs = 0
        self.digest_mismatches = 0
        self.backoff_s = 0.0
        # barrier position (for error attribution and replay)
        self.epoch = 0
        # parent-plane telemetry
        self.flight = None
        self.tracer = None
        if obs and config is not None:
            from ..obs.flight import FlightRecorder
            from ..obs.snapshot import SHARD_ID_STRIDE
            from ..obs.spans import SpanTracer
            self.flight = FlightRecorder(capacity=256)
            self.tracer = SpanTracer()
            self.tracer.rebase_ids(plan.k * SHARD_ID_STRIDE)

    # -- telemetry ---------------------------------------------------------
    def _note(self, kind: str, t: float, what: str, **fields: Any) -> None:
        if self.flight is not None:
            self.flight.note(kind, t, what, **fields)

    # -- worker lifecycle --------------------------------------------------
    def _spawn(self, shard_index: int) -> _Worker:
        parent_conn, child_conn = self.mp_ctx.Pipe()
        proc = self.mp_ctx.Process(
            target=_worker_main,
            args=(child_conn, self.workload_bytes, self.plan, shard_index,
                  self.obs),
            daemon=True)
        proc.start()
        child_conn.close()
        self.generations[shard_index] += 1
        worker = _Worker(shard_index, proc, parent_conn,
                         self.generations[shard_index])
        self.workers[shard_index] = worker
        return worker

    def _reap(self, worker: _Worker, join_s: float = 0.0) -> None:
        """Escalating teardown of one worker: close the parent pipe end,
        then ``join`` (up to ``join_s``) → ``terminate`` → ``kill`` →
        ``close``, so no zombie or leaked fd survives.  ``kill`` matters:
        a SIGSTOPped worker shrugs off SIGTERM (it stays pending while
        the process is stopped) but not SIGKILL."""
        try:
            worker.conn.close()
        except OSError:
            pass
        proc = worker.proc
        proc.join(timeout=join_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        try:
            proc.close()
        except ValueError:
            pass

    def shutdown(self, join_s: float = 0.0) -> None:
        """Reap every live worker (idempotent).  ``join_s`` is the grace
        a worker that was sent ``quit`` gets to exit on its own."""
        for worker in self.workers:
            if worker is not None:
                self._reap(worker, join_s)
        self.workers = [None] * self.plan.k

    # -- protocol primitives ----------------------------------------------
    def _await(self, worker: _Worker, deadline_s: float,
               barrier_time: float) -> Any:
        """One reply, bounded by ``deadline_s``.  A missed deadline with
        a live process is a *stall* (the worker is killed); a missed
        deadline with a dead process, or EOF on the pipe, is a crash."""
        conn, proc = worker.conn, worker.proc
        if not conn.poll(deadline_s):
            if proc.is_alive():
                self.stall_kills += 1
                proc.kill()
                proc.join(timeout=10.0)
                raise ShardWorkerTimeout(worker.shard_index, self.epoch,
                                         barrier_time, deadline_s)
            self.crashes += 1
            raise ShardWorkerCrash(worker.shard_index, self.epoch,
                                   barrier_time, proc.exitcode)
        try:
            return conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            proc.join(timeout=10.0)
            self.crashes += 1
            raise ShardWorkerCrash(worker.shard_index, self.epoch,
                                   barrier_time, proc.exitcode,
                                   cause=repr(exc)) from exc

    def _send(self, shard_index: int, message: Tuple,
              barrier_time: float) -> None:
        """Send with crash-on-send handling: a broken pipe means the
        worker died since the last barrier — revive and resend under
        recovery, raise :class:`ShardWorkerCrash` without."""
        worker = self.workers[shard_index]
        try:
            worker.conn.send(message)
            return
        except (BrokenPipeError, OSError) as exc:
            self.crashes += 1
            if self.journal is None:
                worker.proc.join(timeout=10.0)
                raise ShardWorkerCrash(shard_index, self.epoch,
                                       barrier_time, worker.proc.exitcode,
                                       cause=repr(exc)) from exc
        self._revive(shard_index, "send-failed", barrier_time)
        self.workers[shard_index].conn.send(message)

    def _reply(self, shard_index: int, barrier_time: float,
               message: Tuple) -> Any:
        """One worker's reply to ``message``.  Under recovery a dead or
        stalled worker is revived and sent ``message`` again, as many
        times as the budget allows; without, the typed error raises."""
        while True:
            try:
                return self._await(self.workers[shard_index],
                                   self.deadline_s, barrier_time)
            except ShardWorkerError as exc:
                if self.journal is None:
                    raise
                reason = ("stall" if isinstance(exc, ShardWorkerTimeout)
                          else "crash")
            self._revive(shard_index, reason, barrier_time)
            self._send(shard_index, message, barrier_time)

    # -- restart ladder ----------------------------------------------------
    def _revive(self, shard_index: int, reason: str,
                barrier_time: float) -> _Worker:
        """Replace the worker for ``shard_index`` and replay it to the
        state at the current barrier.  Raises
        :class:`RestartBudgetExhausted` when the run-wide budget is
        spent; loops if the replacement itself dies during replay."""
        config = self.config
        while True:
            old = self.workers[shard_index]
            if old is not None:
                self._reap(old)
                self.workers[shard_index] = None
            if self.restarts >= config.max_restarts:
                raise RestartBudgetExhausted(
                    shard_index, self.epoch, barrier_time,
                    config.max_restarts)
            self.restarts += 1
            self.restarts_by_shard[shard_index] += 1
            attempt = self.restarts_by_shard[shard_index]
            # Exponential backoff with jitter from the dedicated seeded
            # stream — even the wall-clock pauses are a pure function of
            # (seed, restart ordinal).
            base = min(config.backoff_max_s,
                       config.backoff_base_s * (2 ** (attempt - 1)))
            pause = base * (0.5 + 0.5 * self.backoff.random())
            if pause > 0:
                time.sleep(pause)
            self.backoff_s += pause
            worker = self._spawn(shard_index)
            self._note("restart", barrier_time,
                       f"shard{shard_index} gen{worker.generation}",
                       reason=reason, epoch=self.epoch, attempt=attempt)
            span = None
            if self.tracer is not None:
                span = self.tracer.start_trace(
                    "shard.restart", f"shard{shard_index}", barrier_time)
                span.attrs.update(reason=reason, epoch=self.epoch,
                                  generation=worker.generation)
            entries = self.journal.replay_entries(shard_index, self.epoch)
            replay_span = None
            if self.tracer is not None and span is not None:
                replay_span = self.tracer.start_span(
                    "shard.replay", span.context, f"shard{shard_index}",
                    barrier_time)
                replay_span.attrs["epochs"] = len(entries)
            try:
                worker.conn.send(("replay", entries))
                deadline = config.barrier_deadline_s * max(1, len(entries))
                ack = self._await(worker, deadline, barrier_time)
            except ShardWorkerError:
                reason = "replay-died"
                continue
            except (BrokenPipeError, OSError):
                self.crashes += 1
                reason = "replay-send-failed"
                continue
            _, replayed, mismatches = ack
            self.replayed_epochs += replayed
            self.digest_mismatches += mismatches
            self._note("replay", barrier_time,
                       f"shard{shard_index} replayed {replayed} epoch(s)",
                       mismatches=mismatches)
            if replay_span is not None:
                replay_span.finish(barrier_time)
                replay_span.attrs["mismatches"] = mismatches
            if span is not None:
                span.finish(barrier_time)
            return worker

    def _revive_dead(self, barrier_time: float) -> None:
        """Pre-send sweep: revive any worker that died between barriers
        (kill-after-reply faults, spontaneous deaths)."""
        for shard_index in range(self.plan.k):
            worker = self.workers[shard_index]
            if worker is None or not worker.proc.is_alive():
                if worker is not None:
                    self.crashes += 1
                self._revive(shard_index, "died-between-barriers",
                             barrier_time)

    # -- fault injection ---------------------------------------------------
    def _apply_faults(self, kinds: Tuple[str, ...], epoch: int,
                      barrier_time: float) -> None:
        """Fire this epoch's unfired faults of ``kinds`` on live workers.
        ``kill`` and ``stall`` land before the epoch send (a kill is
        found by the pre-send sweep, a stall by the reply deadline);
        ``kill-after-reply`` lands once the replies are in — mid-handoff
        — and is found at the next send (or at collect)."""
        faults = self.config.faults
        if faults is None:
            return
        for kind in kinds:
            for fault in faults.pending(kind, epoch):
                fault.fired = True
                if not 0 <= fault.shard < self.plan.k:
                    continue
                proc = self.workers[fault.shard].proc
                if not proc.is_alive():
                    continue
                if kind == FAULT_STALL:
                    os.kill(proc.pid, signal.SIGSTOP)
                else:
                    proc.kill()
                    proc.join(timeout=10.0)
                self._note("fault", barrier_time,
                           f"{_FAULT_SIGNALS[kind]} shard{fault.shard}",
                           epoch=epoch)

    # -- the pool interface (driven by executor.barrier_loop) --------------
    def start(self, epochs: int) -> None:
        """Resolve the fault plan against the epoch count, then fork one
        worker per shard."""
        if self.journal is not None and self.config.faults is not None:
            self.config.faults.normalize(epochs)
        for shard_index in range(self.plan.k):
            self._spawn(shard_index)

    def exchange(self, epoch: int, epoch_end: float, wire: List[bytes]
                 ) -> Tuple[List[Any], float]:
        """Send every worker its epoch batch and gather the replies.
        Under recovery the bytes are journaled before the send, faults
        fire at their protocol points, dead or stalled workers are
        revived, and each reply's outbox digest is journaled."""
        self.epoch = epoch
        journal = self.journal
        if journal is not None:
            self._apply_faults((FAULT_KILL, FAULT_STALL), epoch, epoch_end)
            self._revive_dead(epoch_end)
            journal.record_send(epoch_end, wire)
        for shard_index in range(self.plan.k):
            self._send(shard_index, ("epoch", epoch_end, wire[shard_index]),
                       epoch_end)
        t0 = time.perf_counter()  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
        replies = [self._reply(i, epoch_end, ("epoch", epoch_end, wire[i]))
                   for i in range(self.plan.k)]
        stall_s = time.perf_counter() - t0  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
        if journal is not None:
            for shard_index, reply in enumerate(replies):
                journal.record_digest(epoch, shard_index,
                                      outbox_digest(reply[0]))
            self._apply_faults((FAULT_KILL_AFTER_REPLY,), epoch, epoch_end)
        # Past this barrier: a revive from here replays this epoch too.
        self.epoch = epoch + 1
        return replies, stall_s

    def collect(self, horizon: float) -> List[Any]:
        """Every worker's ``(partial, cpu_s, snapshot)``; then ``quit``
        and reap the pool."""
        if self.journal is not None:
            self._revive_dead(horizon)
        for shard_index in range(self.plan.k):
            self._send(shard_index, ("collect",), horizon)
        results = [self._reply(i, horizon, ("collect",))
                   for i in range(self.plan.k)]
        for worker in self.workers:
            try:
                worker.conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
        # Workers that got ``quit`` exit on their own; give them time.
        self.shutdown(join_s=10.0)
        return results

    # -- accounting --------------------------------------------------------
    def recovery_stats(self, degraded: bool) -> Dict[str, Any]:
        faults = self.config.faults
        fired = ([{"kind": f.kind, "barrier": f.barrier, "shard": f.shard}
                  for f in faults.faults if f.fired] if faults else [])
        return {
            "enabled": True,
            "worker_restarts": self.restarts,
            "restarts_by_shard": list(self.restarts_by_shard),
            "stall_kills": self.stall_kills,
            "crashes": self.crashes,
            "replayed_epochs": self.replayed_epochs,
            "partial_digest_mismatches": self.digest_mismatches,
            "journal_bytes": self.journal.journal_bytes,
            "backoff_s": round(self.backoff_s, 6),
            "restart_budget": self.config.max_restarts,
            "barrier_deadline_s": self.config.barrier_deadline_s,
            "degraded": degraded,
            "faults_fired": fired,
        }


def run_supervised(workload: ShardWorkload, plan: ShardPlan,
                   obs: bool = False,
                   recovery: Optional[RecoveryConfig] = None
                   ) -> Tuple[Dict[str, Any], Dict[str, int],
                              Dict[str, Any]]:
    """Execute ``workload`` over ``plan`` on forked workers.

    Counters and work are byte-identical to
    :func:`~repro.shard.executor.run_single`.  With ``recovery=None`` a
    dead or stalled worker raises a typed
    :class:`~repro.shard.recovery.ShardWorkerError`.  With a
    :class:`~repro.shard.recovery.RecoveryConfig` they stay identical
    even when workers are killed or stalled mid-run — crash recovery
    replays journaled handoff history into a replacement replica — and
    when the restart budget is exhausted the run degrades to the inline
    pool: deterministic, flagged ``stats["degraded"] = True``, never a
    crash.
    """
    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:
        # No fork on this platform: the inline pool is always exact.
        counters, work, stats = barrier_loop(
            workload, plan, _InlinePool(workload, plan, obs), obs)
        if recovery is not None:
            stats["requested_backend"] = "mp"
            stats["supervised"] = True
        return counters, work, stats
    supervisor = ShardSupervisor(workload, plan, obs, recovery, mp_ctx)
    degraded: Optional[RestartBudgetExhausted] = None
    try:
        counters, work, stats = barrier_loop(workload, plan, supervisor,
                                             obs)
    except RestartBudgetExhausted as exc:
        supervisor.shutdown()
        degraded = exc
        counters, work, stats = barrier_loop(
            workload, plan, _InlinePool(workload, plan, obs), obs)
    finally:
        supervisor.shutdown()
    if supervisor.journal is not None:
        stats["supervised"] = True
        if degraded is not None:
            stats["degraded"] = True
            stats["degrade_reason"] = str(degraded)
            stats["requested_backend"] = "mp"
        recovery_stats = stats["recovery"] = supervisor.recovery_stats(
            degraded=degraded is not None)
        if obs:
            # Fold the parent-plane flight and span streams in beside
            # the workers' (shard id K, past every worker's range).
            stats["obs"].add_recovery(
                recovery_stats,
                flight_records=list(supervisor.flight.to_records(
                    shard=plan.k)),
                span_records=list(supervisor.tracer.to_records()))
    return counters, work, stats
