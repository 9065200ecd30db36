"""The conservative epoch-synchronized shard executor.

One barrier loop (:func:`barrier_loop`) drives both backends.  Each
shard is a :class:`_Replica`; a backend is only a *pool* that steps its
K replicas through one epoch and collects them at the horizon:

``inline``
    :class:`_InlinePool` steps the K replicas round-robin in this
    process — the always-available backend, and the fallback when the
    host cannot fork.  Each replica unpickles the very bytes the mp
    pipes would carry, so both backends exercise identical handoff
    semantics.
``mp``
    :class:`~repro.shard.supervisor.ShardSupervisor` runs one forked
    worker per shard, each serving one replica over a pipe (and, given
    a :class:`~repro.shard.recovery.RecoveryConfig`, revives dead or
    stalled workers).  Real multi-core speedup.

:func:`run_single` is the digest reference: every backend, at every K,
must reproduce its counters byte for byte.

Epoch protocol
--------------
With ``L`` = the plan's lookahead (minimum latency over cut links),
every shard runs ``run(until=T_n)`` for epoch ends ``T_n = n * L``.  A
packet sent at ``t in (T_{n-1}, T_n]`` cannot arrive across a shard
boundary sooner than ``t + L > T_n``, so handoffs collected at barrier
``n`` always inject strictly into the future of every shard — no shard
ever sees an event earlier than its clock (conservative PDES, no
rollback).  Batches are merged in canonical ``(time, source shard,
send order)`` order before injection so event tie-breaking at equal
timestamps is identical no matter how many shards contributed.

A workload is *sharded* only when its scenario opts in (see
``repro.perf.scenarios.SHARD_WORKLOADS``); everything else falls back
to the single-shard path, where ``--workers K`` is digest-trivially
invariant by construction.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from .fabric import Handoff, ShardFabric
from .partition import ShardPlan, partition
from .recovery import RecoveryConfig

NodeId = Hashable


class ShardWorkload:
    """Base protocol for a scenario that can execute sharded.

    Subclasses are plain picklable data (``seed``, ``scale``, derived
    params) plus pure methods — a forked worker reconstructs the whole
    world from the instance alone.  Contract:

    * :meth:`build` constructs the **full** network replica —
      byte-identical construction in every shard — wiring a
      :class:`ShardFabric` that owns ``owned`` (``None`` = everything,
      the single-shard oracle).
    * :meth:`setup` installs event sources (drivers) **only** for
      owned nodes.
    * :meth:`collect` returns summable numeric partials over owned
      ships; the executor sums them across shards.
    * :meth:`finalize` maps the summed totals to the scenario's
      ``(counters, work)`` — a pure function, so the K-shard digest
      can only equal the single-shard digest if every partial does.
    """

    name = "workload"
    #: Pickle-boundary contract (VIA012): the instance crosses the
    #: executor pipe, so the whole chain stays __slots__-closed.
    __slots__ = ("seed", "scale")

    def __init__(self, seed: int, scale: str):
        self.seed = int(seed)
        self.scale = scale

    def topology(self):
        raise NotImplementedError

    def horizon(self) -> float:
        raise NotImplementedError

    def build(self, owned: Optional[FrozenSet[NodeId]] = None
              ) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, ctx: Dict[str, Any],
              owned: Optional[FrozenSet[NodeId]]) -> None:
        raise NotImplementedError

    def collect(self, ctx: Dict[str, Any],
                owned: Optional[FrozenSet[NodeId]]) -> Dict[str, Any]:
        raise NotImplementedError

    def finalize(self, totals: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, int]]:
        raise NotImplementedError


def shard_fabric_factory(owned: Optional[FrozenSet[NodeId]]):
    """A ``fabric_factory`` for :class:`~repro.core.wandering_network.
    WanderingNetwork` producing a boundary-aware fabric, or the plain
    fabric when ``owned`` is ``None`` (the oracle path)."""
    if owned is None:
        return None

    def factory(sim, topology, loss_rate=0.0):
        return ShardFabric(sim, topology, loss_rate=loss_rate, owned=owned)
    return factory


def run_single(workload: ShardWorkload
               ) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """The single-shard oracle: build once, run to the horizon."""
    ctx = workload.build(owned=None)
    workload.setup(ctx, owned=None)
    ctx["sim"].run(until=workload.horizon())
    totals = workload.collect(ctx, owned=None)
    return workload.finalize(totals)


class _Replica:
    """One shard's world, stepped epoch by epoch: an inline shard, an
    mp worker's state, or the single-shard obs run.

    Observability is armed *after* construction: every shard builds the
    full network, so construction-time emissions would be counted K
    times if collection started earlier — arming post-build is what
    makes the merged counter sums K-invariant.  The tracer is rebased
    onto the shard's disjoint id range so merged spans (and the trace
    contexts crossing handoff boundaries inside ``packet.meta``) stay
    globally unambiguous.
    """

    __slots__ = ("workload", "owned", "shard_index", "obs", "ctx", "sim",
                 "fabric", "barriers", "cpu_s")

    def __init__(self, workload: ShardWorkload,
                 owned: Optional[FrozenSet[NodeId]], shard_index: int,
                 obs: bool):
        self.workload = workload
        self.owned = owned
        self.shard_index = shard_index
        self.obs = obs
        self.ctx = workload.build(owned=owned)
        self.sim, self.fabric = self.ctx["sim"], self.ctx["fabric"]
        if obs:
            from ..obs.snapshot import SHARD_ID_STRIDE
            armed = self.sim.obs.enable()
            armed.shard = shard_index
            armed.tracer.rebase_ids(shard_index * SHARD_ID_STRIDE)
        workload.setup(self.ctx, owned=owned)
        self.barriers = 0
        self.cpu_s = 0.0

    def step(self, epoch_end: float, batch_bytes: bytes
             ) -> Tuple[List[Handoff], int, float]:
        """Inject one pickled batch, run to ``epoch_end`` and note the
        barrier.  Returns the barrier reply ``(outbox, events_executed,
        cpu_s)``, ``cpu_s`` being this step's process CPU."""
        t0 = time.process_time()  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
        sim = self.sim
        self.fabric.inject(pickle.loads(batch_bytes))
        sim.run(until=epoch_end)
        if sim.obs.on:
            sim.obs.shard_barriers.inc()
            if sim._flight is not None:
                sim._flight.note("barrier", epoch_end,
                                 f"epoch#{self.barriers}")
        self.barriers += 1
        outbox = self.fabric.drain_outbox()
        cpu_s = time.process_time() - t0  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
        self.cpu_s += cpu_s
        return outbox, sim.events_executed, cpu_s

    def collect(self) -> Tuple[Dict[str, Any], float, Any]:
        """``(partial, cpu_s, snapshot)``: the workload's summable
        partial, the CPU spent in :meth:`step` and, with obs on, the
        replica's :class:`~repro.obs.snapshot.ObsSnapshot`."""
        snapshot = None
        if self.obs:
            from ..obs.snapshot import ObsSnapshot
            snapshot = ObsSnapshot.capture(self.sim.obs,
                                           shard=self.shard_index)
        return (self.workload.collect(self.ctx, self.owned), self.cpu_s,
                snapshot)


def run_sharded(workload: ShardWorkload, workers: int,
                backend: str = "inline", obs: bool = False,
                recovery: Optional[RecoveryConfig] = None
                ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    """Execute ``workload`` over ``workers`` shards.

    Returns ``(counters, work, stats)`` where counters/work are
    byte-identical to :func:`run_single` and ``stats`` describes the
    parallel execution (never folded into digests).

    With ``obs=True`` each replica collects metrics/spans/profiles,
    the executor snapshots them at collect time (shipped over the
    existing pipes for the mp backend), merges them in canonical
    shard-index order, and attaches the resulting
    :class:`~repro.obs.snapshot.MergedObs` — plus the per-epoch
    timeline — as ``stats["obs"]``.  Observability never draws RNG or
    schedules events, so ``obs=True`` leaves counters and digests
    byte-identical to an obs-off run.

    ``recovery`` (a :class:`~repro.shard.recovery.RecoveryConfig`)
    makes the mp backend fault-tolerant: epoch journaling and
    digest-identical crash recovery (see :mod:`repro.shard.supervisor`).
    Without it a dead or stalled mp worker raises a typed
    :class:`~repro.shard.recovery.ShardWorkerError`.  Ignored for the
    inline backend, which has no processes to lose.
    """
    if backend not in ("inline", "mp"):
        raise ValueError(f"unknown shard backend {backend!r} "
                         "(known: inline, mp)")
    plan = partition(workload.topology(), workers, seed=workload.seed)
    if plan.k <= 1 or plan.lookahead <= 0.0:
        stats = {
            "mode": "single", "k": 1, "requested_k": workers,
            "backend": backend, "barriers": 0, "handoffs": 0,
            "reason": ("k=1" if plan.k <= 1 else "zero-lookahead"),
        }
        if not obs:
            counters, work = run_single(workload)
            return counters, work, stats
        from ..obs.snapshot import merge_snapshots
        replica = _Replica(workload, None, 0, obs=True)
        replica.sim.run(until=workload.horizon())
        partial, _, snapshot = replica.collect()
        counters, work = workload.finalize(partial)
        stats["obs"] = merge_snapshots([snapshot])
        return counters, work, stats
    if backend == "mp":
        from .supervisor import run_supervised
        return run_supervised(workload, plan, obs=obs, recovery=recovery)
    return barrier_loop(workload, plan, _InlinePool(workload, plan, obs),
                        obs)


# ----------------------------------------------------------------------
# the barrier loop, shared by both backends
# ----------------------------------------------------------------------

def _epoch_ends(horizon: float, lookahead: float) -> List[float]:
    """Barrier times: multiples of the lookahead, horizon-terminated.

    Zero (or negative) lookahead admits no conservative window — the
    loop could never advance — so it is rejected here rather than
    spinning; :func:`run_sharded` routes such plans to the single-shard
    path before ever computing epochs.
    """
    if lookahead <= 0:
        raise ValueError(
            f"lookahead must be positive, got {lookahead!r} "
            "(zero-lookahead plans cannot run the epoch protocol)")
    ends = []
    t = 0.0
    step = lookahead if lookahead != float("inf") else horizon
    while t < horizon:
        t = min(horizon, t + step)
        ends.append(t)
    return ends


def _route(plan: ShardPlan,
           outboxes: List[List[Handoff]]) -> Dict[int, List[Handoff]]:
    """Merge per-shard outboxes into per-destination injection batches
    in canonical ``(time, source shard, send order)`` order."""
    tagged = []
    for shard_index, outbox in enumerate(outboxes):
        for order, handoff in enumerate(outbox):
            tagged.append((handoff.time, shard_index, order, handoff))
    tagged.sort(key=lambda entry: entry[:3])
    batches: Dict[int, List[Handoff]] = {}
    for _, _, _, handoff in tagged:
        dest = plan.assignment[handoff.to_node]
        batches.setdefault(dest, []).append(handoff)
    return batches


def _sum_partials(partials: List[Dict[str, Any]]) -> Dict[str, Any]:
    totals: Dict[str, Any] = {}
    for partial in partials:
        for key, value in partial.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def barrier_loop(workload: ShardWorkload, plan: ShardPlan, pool,
                 obs: bool
                 ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    """Run the epoch protocol over ``pool``'s K replicas.

    A pool is a backend: ``start(epochs)`` readies its replicas,
    ``exchange(epoch, epoch_end, wire)`` steps every replica through one
    epoch — replica ``i`` injecting the pickled batch ``wire[i]`` — and
    returns ``(replies, stall_s)``, and ``collect(horizon)`` returns
    every replica's ``(partial, cpu_s, snapshot)``.  Everything else —
    the barrier schedule, the canonical merge, handoff accounting, the
    epoch timeline, finalize and the obs merge — lives here, once.

    The final epoch's routed batch is counted but never injected: no
    epoch follows to run it.
    """
    ends = _epoch_ends(workload.horizon(), plan.lookahead)
    pool.start(len(ends))
    handoffs = 0
    stall_s = 0.0
    epoch_records: List[Dict[str, Any]] = []
    prev_events = [0] * plan.k
    epoch_start = 0.0
    batches: Dict[int, List[Handoff]] = {}
    for epoch, epoch_end in enumerate(ends):
        # One wire format: each batch is pickled once, and the same
        # bytes reach the replica (and, under recovery, the journal).
        wire = [pickle.dumps(batches.get(i, [])) for i in range(plan.k)]
        replies, epoch_stall = pool.exchange(epoch, epoch_end, wire)
        stall_s += epoch_stall
        batches = _route(plan, [reply[0] for reply in replies])
        epoch_handoffs = sum(len(b) for b in batches.values())
        handoffs += epoch_handoffs
        if obs:
            from ..obs.timeline import make_epoch_record
            events = [reply[1] for reply in replies]
            epoch_records.append(make_epoch_record(
                epoch, epoch_start, epoch_end, epoch_handoffs,
                [e - p for e, p in zip(events, prev_events)],
                [reply[2] for reply in replies], epoch_stall))
            prev_events = events
        epoch_start = epoch_end
    results = pool.collect(ends[-1] if ends else 0.0)
    partials = [result[0] for result in results]
    worker_cpu_s = [result[1] for result in results]
    counters, work = workload.finalize(_sum_partials(partials))
    stats = _stats(plan, pool.backend, len(ends), handoffs,
                   [p.get("events_executed", 0) for p in partials],
                   worker_cpu_s, stall_s)
    if obs:
        from ..obs.snapshot import merge_snapshots
        merged = merge_snapshots([result[2] for result in results])
        merged.add_epochs(epoch_records)
        merged.add_shard_stats(worker_cpu_s, stall_s)
        stats["obs"] = merged
    return counters, work, stats


class _InlinePool:
    """The inline backend: K replicas in this process, stepped
    round-robin on the same pickled batches the mp pipes carry.  It
    never waits on a concurrent worker, so its barrier stall is 0."""

    backend = "inline"

    def __init__(self, workload: ShardWorkload, plan: ShardPlan,
                 obs: bool):
        self.workload = workload
        self.plan = plan
        self.obs = obs
        self.replicas: List[_Replica] = []

    def start(self, epochs: int) -> None:
        self.replicas = [
            _Replica(self.workload, frozenset(self.plan.shards[i]), i,
                     self.obs)
            for i in range(self.plan.k)]

    def exchange(self, epoch: int, epoch_end: float, wire: List[bytes]
                 ) -> Tuple[List[Any], float]:
        return ([replica.step(epoch_end, batch)
                 for replica, batch in zip(self.replicas, wire)], 0.0)

    def collect(self, horizon: float) -> List[Any]:
        return [replica.collect() for replica in self.replicas]


# ----------------------------------------------------------------------
# mp worker (forked, piped handoffs; its pool is the supervisor)
# ----------------------------------------------------------------------

def _worker_main(conn, workload_bytes: bytes, plan: ShardPlan,
                 shard_index: int, obs: bool = False) -> None:
    """One shard's :class:`_Replica` in its own process, serving the
    barrier protocol over ``conn``.

    ``("epoch", epoch_end, batch_bytes)`` is one :meth:`_Replica.step`;
    the reply is the step's ``(outbox, events_executed, cpu_s)``.

    ``("replay", entries)`` (sent by the supervisor to a freshly forked
    replacement, see :mod:`repro.shard.supervisor`) fast-forwards the
    replica through the journaled epoch history by the same step and
    *discards* each outbox — the original worker already shipped those
    handoffs before it died — after fingerprinting it against the
    journaled outbox digest, so a replay that diverged is detected at
    the worker, not at the final digest.

    ``("collect",)`` replies with :meth:`_Replica.collect`, which
    carries the worker's full :class:`~repro.obs.snapshot.ObsSnapshot`
    back over the pipe when obs is on."""
    replica = _Replica(pickle.loads(workload_bytes),
                       frozenset(plan.shards[shard_index]), shard_index, obs)
    sim = replica.sim
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "epoch":
                conn.send(replica.step(message[1], message[2]))
            elif kind == "replay":
                from .recovery import outbox_digest
                entries = message[1]
                mismatches = 0
                for epoch_end, batch_bytes, expected in entries:
                    outbox = replica.step(epoch_end, batch_bytes)[0]
                    if outbox_digest(outbox) != expected:
                        mismatches += 1
                if sim.obs.on:
                    sim.obs.shard_worker_restarts.inc()
                    if entries:
                        sim.obs.recovery_replay_epochs.inc(len(entries))
                    if sim._flight is not None:
                        sim._flight.note(
                            "replay", sim.now,
                            f"replayed {len(entries)} epoch(s)",
                            mismatches=mismatches)
                conn.send(("replayed", len(entries), mismatches))
            elif kind == "collect":
                conn.send(replica.collect())
            else:  # "quit"
                return
    finally:
        conn.close()


def _stats(plan: ShardPlan, backend: str, barriers: int, handoffs: int,
           shard_events: List[int], worker_cpu_s: List[float],
           barrier_stall_s: float) -> Dict[str, Any]:
    mean = sum(shard_events) / len(shard_events)
    return {
        "mode": "sharded",
        "backend": backend,
        "k": plan.k,
        "requested_k": plan.requested_k,
        "shard_sizes": [len(s) for s in plan.shards],
        "balance": round(plan.balance, 4),
        "edge_cut": plan.edge_cut,
        "lookahead": plan.lookahead,
        "barriers": barriers,
        "handoffs": handoffs,
        "shard_events": shard_events,
        #: max/mean events per shard — 1.0 is a perfectly level load.
        "imbalance": round(max(shard_events) / mean, 4) if mean else 1.0,
        # Per-worker compute seconds (process CPU inside each step).
        # max() is the critical path: on a host with >= K idle cores,
        # wall clock converges to it (plus barrier overhead), so
        # single_wall / max_worker_cpu_s is the measured parallel
        # speedup independent of how many cores the *measuring* host
        # happens to have.
        "worker_cpu_s": [round(t, 6) for t in worker_cpu_s],
        "max_worker_cpu_s": round(max(worker_cpu_s), 6),
        #: parent wall time spent waiting at barriers (0 for inline).
        "barrier_stall_s": round(barrier_stall_s, 6),
    }
