"""repro.shard.recovery: fault-tolerant sharded execution.

The contract under test sharpens the shard invariant: K-shard counters
must equal the single-shard oracle's **even when shard workers are
SIGKILLed or SIGSTOPped mid-run** — the supervisor respawns the dead
shard, replays its journaled handoff history, and the barrier protocol
resumes without a trace in the digest.  When the restart budget runs
out the run must *degrade* (deterministic inline fallback, flagged),
never crash.
"""

import contextlib
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.perf.harness import load_results, run_scenario
from repro.perf.scenarios import SHARD_WORKLOADS
from repro.resilience import run_campaign
from repro.sanitize import taped
from repro.shard import (DEFAULT_BARRIER_DEADLINE_S, EpochJournal, Fault,
                         FaultPlan, Handoff, RecoveryConfig,
                         RestartBudgetExhausted, ShardSupervisor,
                         ShardWorkerCrash, ShardWorkerError,
                         ShardWorkerTimeout, outbox_digest, partition,
                         run_sharded, run_single)
from repro.shard.supervisor import _Worker

#: Fast restart ladder for tests — chaos on purpose shouldn't idle.
FAST = dict(backoff_base_s=0.005, backoff_max_s=0.02)


def _fault_config(*faults, **kw):
    kw.setdefault("barrier_deadline_s", 30.0)
    return RecoveryConfig(faults=FaultPlan(list(faults)), **FAST, **kw)


# ----------------------------------------------------------------------
# the acceptance proof: digest-identical recovery
# ----------------------------------------------------------------------

class TestDigestIdenticalRecovery:
    """Every shardable scenario × K ∈ {2, 4} × {SIGKILL, stall}: the
    supervised run finishes byte-identical to the fault-free single-
    shard oracle."""

    @pytest.mark.parametrize("name", sorted(SHARD_WORKLOADS))
    @pytest.mark.parametrize("k", [2, 4])
    def test_sigkill_recovers_digest_identical(self, name, k):
        cls = SHARD_WORKLOADS[name]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 2, k - 1))
        counters, work, stats = run_sharded(cls(42, "tiny"), k,
                                            backend="mp",
                                            recovery=config)
        assert counters == base_counters
        assert work == base_work
        rec = stats["recovery"]
        assert rec["worker_restarts"] >= 1
        assert rec["replayed_epochs"] >= 1
        assert rec["partial_digest_mismatches"] == 0
        assert not stats.get("degraded")

    @pytest.mark.parametrize("name", sorted(SHARD_WORKLOADS))
    @pytest.mark.parametrize("k", [2, 4])
    def test_stall_recovers_digest_identical(self, name, k):
        cls = SHARD_WORKLOADS[name]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("stall", 1, 0),
                               barrier_deadline_s=0.3)
        counters, work, stats = run_sharded(cls(42, "tiny"), k,
                                            backend="mp",
                                            recovery=config)
        assert counters == base_counters
        assert work == base_work
        rec = stats["recovery"]
        assert rec["stall_kills"] >= 1
        assert rec["worker_restarts"] >= 1
        assert not stats.get("degraded")

    def test_kill_during_handoff_recovers(self):
        """Death *between* barriers — outbox already routed — is
        detected at the next epoch send and replayed through a half-
        exchanged barrier."""
        cls = SHARD_WORKLOADS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill-after-reply", 2, 1))
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        assert stats["recovery"]["worker_restarts"] == 1

    def test_kill_after_final_barrier_recovers_at_collect(self):
        """Death after the last barrier's reply forces a full-history
        replay at collect time."""
        cls = SHARD_WORKLOADS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill-after-reply", -1, 1))
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        rec = stats["recovery"]
        assert rec["worker_restarts"] == 1
        assert rec["replayed_epochs"] == stats["barriers"]

    def test_multiple_faults_same_run(self):
        cls = SHARD_WORKLOADS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 2, 0), Fault("kill", 10, 1),
                               max_restarts=5)
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        assert stats["recovery"]["worker_restarts"] == 2

    def test_no_fault_supervised_matches_plain_mp(self):
        """Supervision is pure overhead when nothing fails: same
        counters as a plain (recovery=None) mp run, zero restarts."""
        cls = SHARD_WORKLOADS["shuttle-storm"]
        plain, _, _ = run_sharded(cls(42, "tiny"), 2, backend="mp")
        supervised, _, stats = run_sharded(
            cls(42, "tiny"), 2, backend="mp", recovery=RecoveryConfig())
        assert supervised == plain
        assert stats["supervised"] is True
        assert stats["recovery"]["worker_restarts"] == 0

    def test_deep_replay_recovery(self):
        """A kill 30 barriers in replays the whole 30-epoch journal
        prefix straight from its per-epoch entries, digest-identically."""
        cls = SHARD_WORKLOADS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 30, 1))
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        rec = stats["recovery"]
        assert rec["replayed_epochs"] == 30
        assert rec["partial_digest_mismatches"] == 0


class TestCommittedBaselineRecovery:
    """Recovery digests gate against the committed baseline — the exact
    check the CI recovery-smoke job runs."""

    def test_worker_kill_matches_committed_digest(self, repo_baseline):
        entry = repo_baseline["shard-scaling"]
        config = _fault_config(Fault("kill", 3, 1))
        result = run_scenario("shard-scaling", seed=entry["seed"],
                              scale=entry["scale"], repeats=1,
                              workers=2, backend="mp", recovery=config)
        assert result.digest == entry["digest"]
        assert result.shard_stats["recovery"]["worker_restarts"] == 1

    @pytest.fixture(scope="class")
    def repo_baseline(self):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        return {entry["scenario"]: entry
                for entry in load_results(path)}


# ----------------------------------------------------------------------
# degradation: budget exhaustion must not crash
# ----------------------------------------------------------------------

class TestDegradation:
    def test_budget_exhaustion_degrades_to_inline(self):
        cls = SHARD_WORKLOADS["shard-scaling"]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 2, 0), max_restarts=0)
        counters, work, stats = run_sharded(cls(42, "tiny"), 2,
                                            backend="mp",
                                            recovery=config)
        assert counters == base_counters
        assert work == base_work
        assert stats["degraded"] is True
        assert stats["backend"] == "inline"
        assert stats["requested_backend"] == "mp"
        assert "restart budget" in stats["degrade_reason"]
        assert stats["recovery"]["degraded"] is True

    def test_degradation_is_deterministic(self):
        cls = SHARD_WORKLOADS["shuttle-storm"]
        runs = []
        for _ in range(2):
            config = _fault_config(Fault("kill", 1, 1), max_restarts=0)
            counters, work, stats = run_sharded(cls(7, "tiny"), 2,
                                                backend="mp",
                                                recovery=config)
            assert stats["degraded"]
            runs.append((counters, work))
        assert runs[0] == runs[1]
        assert runs[0] == run_single(cls(7, "tiny"))

    def test_budget_counts_run_wide(self):
        """Three kills against a budget of two: the third exhausts it
        and the run degrades — still digest-identical."""
        cls = SHARD_WORKLOADS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 1, 0), Fault("kill", 3, 1),
                               Fault("kill", 5, 0), max_restarts=2)
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        assert stats["degraded"] is True
        assert stats["recovery"]["worker_restarts"] == 2


# ----------------------------------------------------------------------
# typed barrier errors (recovery disabled)
# ----------------------------------------------------------------------

class ExplodingWorkload(SHARD_WORKLOADS["shard-scaling"]):
    """A worker that calls ``os._exit`` mid-epoch.

    DANGER: only for a plain (recovery=None) mp run.  Under recovery
    the replacement would explode too, exhaust the budget, and the
    inline fallback would then run the workload — and its ``os._exit``
    — in the test process itself.
    """

    def setup(self, ctx, owned):
        super().setup(ctx, owned)
        if owned is not None:   # never in the single-shard oracle
            ctx["sim"].call_at(0.5, lambda: os._exit(13),
                               name="explode")


class TestTypedBarrierErrors:
    def test_worker_crash_raises_typed_error(self):
        with pytest.raises(ShardWorkerCrash) as err:
            run_sharded(ExplodingWorkload(42, "tiny"), 2, backend="mp")
        assert err.value.shard_index in (0, 1)
        assert "inline" in str(err.value)   # points at the repro path
        # Typed errors still satisfy pre-recovery except clauses.
        assert isinstance(err.value, RuntimeError)
        assert isinstance(err.value, ShardWorkerError)

    def test_crash_leaves_no_zombie_workers(self):
        with pytest.raises(ShardWorkerCrash):
            run_sharded(ExplodingWorkload(42, "tiny"), 2, backend="mp")
        # via: ignore[VIA003] host-side reaping deadline, not sim time
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:  # via: ignore[VIA003]
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    @staticmethod
    def _supervised_pipe(target, shard_index, epoch):
        """A bare worker process on a pipe, owned by a plain (no
        recovery) supervisor positioned at barrier ``epoch``."""
        ctx = multiprocessing.get_context("fork")
        workload = SHARD_WORKLOADS["shard-scaling"](42, "tiny")
        plan = partition(workload.topology(), 2, seed=42)
        supervisor = ShardSupervisor(workload, plan, False, None, ctx)
        supervisor.epoch = epoch
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=target, daemon=True)
        proc.start()
        child.close()
        return supervisor, _Worker(shard_index, proc, parent, 1)

    def test_recv_deadline_timeout_carries_context(self):
        supervisor, worker = self._supervised_pipe(
            lambda: time.sleep(30.0), 1, 7)
        try:
            with pytest.raises(ShardWorkerTimeout) as err:
                supervisor._await(worker, 0.2, 3.5)
            assert err.value.shard_index == 1
            assert err.value.epoch == 7
            assert err.value.barrier_time == 3.5
            assert err.value.deadline_s == 0.2
            # A stalled worker is killed, not left hanging.
            assert not worker.proc.is_alive()
        finally:
            supervisor._reap(worker)

    def test_recv_deadline_crash_carries_exitcode(self):
        supervisor, worker = self._supervised_pipe(
            lambda: os._exit(9), 0, 3)
        worker.proc.join(timeout=10.0)
        try:
            with pytest.raises(ShardWorkerCrash) as err:
                supervisor._await(worker, 5.0, 1.0)
            assert err.value.shard_index == 0
            assert err.value.epoch == 3
            assert err.value.barrier_time == 1.0
            assert err.value.exitcode == 9
        finally:
            supervisor._reap(worker)

    def test_shutdown_reaps_a_stopped_worker(self):
        """SIGTERM stays pending on a SIGSTOPped process; the teardown
        must escalate to SIGKILL and reap it, not leave it behind."""
        supervisor, worker = self._supervised_pipe(
            lambda: time.sleep(30.0), 0, 0)
        pid = worker.proc.pid
        os.kill(pid, signal.SIGSTOP)
        supervisor.workers[0] = worker
        try:
            supervisor.shutdown()
            assert supervisor.workers == [None, None]
            assert worker.proc not in multiprocessing.active_children()
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            # On failure, do not leave a stopped child for exit to join.
            with contextlib.suppress(ValueError):   # closed: reaped
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=10.0)

    def test_plain_run_waits_with_the_default_deadline(self):
        workload = SHARD_WORKLOADS["shard-scaling"](42, "tiny")
        plan = partition(workload.topology(), 2, seed=42)
        ctx = multiprocessing.get_context("fork")
        plain = ShardSupervisor(workload, plan, False, None, ctx)
        assert plain.deadline_s == DEFAULT_BARRIER_DEADLINE_S == 120.0
        assert plain.journal is None
        supervised = ShardSupervisor(workload, plan, False,
                                     RecoveryConfig(), ctx)
        assert supervised.deadline_s == 30.0
        assert supervised.journal is not None


class TestPlainMpPath:
    """A plain (``recovery=None``) mp run goes through the same loop as a
    supervised one, but must not pay for supervision."""

    def test_plain_run_skips_supervision(self):
        cls = SHARD_WORKLOADS["shuttle-storm"]
        with taped() as tape:
            counters, work, stats = run_sharded(cls(42, "tiny"), 2,
                                                backend="mp")
        assert not [m for m in tape.merges
                    if m.label.startswith("outbox[")]
        assert "supervised" not in stats and "recovery" not in stats
        assert set(stats) == {
            "mode", "backend", "k", "requested_k", "shard_sizes",
            "balance", "edge_cut", "lookahead", "barriers", "handoffs",
            "shard_events", "imbalance", "worker_cpu_s",
            "max_worker_cpu_s", "barrier_stall_s"}
        assert stats["mode"] == "sharded" and stats["backend"] == "mp"
        assert (counters, work) == run_single(cls(42, "tiny"))
        # Control: the tape does record them when recovery computes them.
        with taped() as tape:
            run_sharded(cls(42, "tiny"), 2, backend="mp",
                        recovery=RecoveryConfig())
        assert [m for m in tape.merges if m.label.startswith("outbox[")]


# ----------------------------------------------------------------------
# the epoch journal
# ----------------------------------------------------------------------

class _BenchPacket:
    """Minimal picklable stand-in for a diverted packet."""

    def __init__(self, pid):
        self.packet_id = pid
        self.size_bytes = 64


def _handoff(t, src, dst, packet_id):
    return Handoff(t, src, dst, _BenchPacket(packet_id))


def _wire(epoch, k=2):
    """Per-shard injection bytes for one epoch, as the parent sends
    them."""
    return [pickle.dumps([_handoff(epoch + 0.5, (0, 0), (0, 1),
                                   epoch * 10 + i)])
            for i in range(k)]


class TestEpochJournal:
    def _journal(self, epochs=6, k=2):
        journal = EpochJournal(k)
        for epoch in range(epochs):
            journal.record_send(float(epoch + 1), _wire(epoch, k))
            for i in range(k):
                journal.record_digest(epoch, i, f"digest-{epoch}-{i}")
        return journal

    def test_replay_entries_cover_prefix_in_order(self):
        journal = self._journal()
        entries = journal.replay_entries(1, 4)
        assert [e[0] for e in entries] == [1.0, 2.0, 3.0, 4.0]
        assert [e[2] for e in entries] == [f"digest-{i}-1"
                                           for i in range(4)]
        batch = pickle.loads(entries[2][1])
        assert batch[0].packet.packet_id == 21

    def test_replay_entries_are_the_sent_bytes_for_every_upto(self):
        journal = EpochJournal(2)
        sent = []
        for epoch in range(6):
            wire = _wire(epoch)
            sent.append(wire)
            journal.record_send(float(epoch + 1), wire)
        for shard in range(2):
            for upto in range(7):
                entries = journal.replay_entries(shard, upto)
                assert len(entries) == upto
                for epoch, (end, batch, _) in enumerate(entries):
                    assert end == float(epoch + 1)
                    # The very bytes handed to record_send, oldest first.
                    assert batch is sent[epoch][shard]

    def test_journal_bytes_is_sum_of_recorded_batches(self):
        journal = EpochJournal(2)
        assert journal.journal_bytes == 0
        total = 0
        for epoch in range(5):
            wire = _wire(epoch) if epoch % 2 else [pickle.dumps([])] * 2
            total += sum(len(b) for b in wire)
            journal.record_send(float(epoch + 1), wire)
            assert journal.journal_bytes == total


# ----------------------------------------------------------------------
# fault plans and configuration
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("segfault", 0, 0)

    def test_negative_barriers_normalize_from_end(self):
        plan = FaultPlan([Fault("kill", -1, 0), Fault("stall", -3, 1)])
        plan.normalize(10)
        assert [f.barrier for f in plan.faults] == [9, 7]

    def test_pending_excludes_fired(self):
        plan = FaultPlan([Fault("kill", 2, 0), Fault("kill", 2, 1)])
        pending = plan.pending("kill", 2)
        assert len(pending) == 2
        pending[0].fired = True
        assert len(plan.pending("kill", 2)) == 1
        assert plan.pending("stall", 2) == []


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(barrier_deadline_s=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_restarts=-1)

    def test_backoff_stream_is_seeded(self):
        config = RecoveryConfig()
        a = [config.backoff_rng(42).random() for _ in range(3)]
        b = [config.backoff_rng(42).random() for _ in range(3)]
        c = [config.backoff_rng(43).random() for _ in range(3)]
        assert a == b
        assert a != c

    def test_budget_error_carries_context(self):
        err = RestartBudgetExhausted(1, 5, 2.5, 3)
        assert (err.shard_index, err.epoch, err.budget) == (1, 5, 3)


class TestOutboxDigest:
    def test_stable_across_pickle_round_trip(self):
        outbox = [_handoff(1.5, (0, 0), (0, 1), 7),
                  _handoff(1.7, (1, 0), (1, 1), 8)]
        clone = pickle.loads(pickle.dumps(outbox))
        assert outbox_digest(clone) == outbox_digest(outbox)

    def test_sensitive_to_content(self):
        a = [_handoff(1.5, (0, 0), (0, 1), 7)]
        b = [_handoff(1.5, (0, 0), (0, 1), 8)]
        assert outbox_digest(a) != outbox_digest(b)
        assert outbox_digest([]) != outbox_digest(a)


# ----------------------------------------------------------------------
# telemetry: recovery is visible, never digest-visible
# ----------------------------------------------------------------------

class TestRecoveryObservability:
    def test_recovered_run_keeps_metrics_digest(self):
        cls = SHARD_WORKLOADS["shard-scaling"]
        _, _, clean = run_sharded(cls(42, "tiny"), 2, backend="inline",
                                  obs=True)
        config = _fault_config(Fault("kill", 2, 1))
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp",
                                  obs=True, recovery=config)
        merged = stats["obs"]
        assert merged.metrics_digest() == clean["obs"].metrics_digest()

    def test_restart_lands_in_flight_and_spans(self):
        cls = SHARD_WORKLOADS["shard-scaling"]
        config = _fault_config(Fault("kill", 2, 1))
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp",
                                  obs=True, recovery=config)
        merged = stats["obs"]
        assert merged.recovery is not None
        assert merged.recovery["worker_restarts"] == 1
        supervisor_entries = [r for r in merged.flight_records
                              if r.get("shard") == 2]
        kinds = {r["kind"] for r in supervisor_entries}
        assert {"fault", "restart", "replay"} <= kinds
        names = {r["name"] for r in merged.span_records}
        assert {"shard.restart", "shard.replay"} <= names

    def test_recovery_gauges_in_merged_registry(self):
        cls = SHARD_WORKLOADS["shard-scaling"]
        config = _fault_config(Fault("kill", 2, 0))
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp",
                                  obs=True, recovery=config)
        samples = {rec["name"]: rec
                   for rec in stats["obs"].registry.collect()
                   if rec["name"].startswith("repro_shard_")}
        assert "repro_shard_worker_restarts" in samples
        assert "repro_shard_recovery_replay_epochs" in samples
        assert "repro_shard_recovery_degraded" in samples


# ----------------------------------------------------------------------
# chaos campaigns
# ----------------------------------------------------------------------

class TestWorkerFaultCampaigns:
    @pytest.mark.parametrize("name", ["worker-kill", "worker-stall",
                                      "worker-kill-during-handoff",
                                      "worker-budget-exhausted"])
    def test_campaign_passes(self, name):
        result = run_campaign(name, seed=42)
        assert result.ok, result.summary()
        assert result.recovery is not None
        assert result.counts["run_digest"] \
            == result.counts["run_digest_single"]

    def test_restarts_asserted_with_digest_unchanged(self):
        result = run_campaign("worker-kill", seed=42)
        assert result.recovery["worker_restarts"] > 0
        assert result.counts["run_digest"] \
            == result.counts["run_digest_single"]
        payload = result.to_dict()
        assert payload["recovery"]["worker_restarts"] > 0

    def test_campaign_digest_reproducible(self):
        a = run_campaign("worker-kill", seed=11, observability=False)
        b = run_campaign("worker-kill", seed=11, observability=False)
        assert a.digest == b.digest
