"""The agenda and event-loop contract: fire order, same-instant
delivery, digest stability, and the agenda counters.

Four layers of proof:

* **ordering property** (hypothesis) — under random schedule / cancel /
  run interleavings with deliberately colliding timestamps, events fire
  in exactly ``sorted((time, priority, seq))`` order of the live ones;
* **digest matrix** — every scenario reproduces its K=1 digest at
  K ∈ {1, 2, 4} shards;
* **same-instant semantics** — insertion at the current instant
  (including URGENT), ``stop()`` and ``max_events`` among events that
  share one timestamp leave the agenda exactly as expected;
* **counter export** — BENCH JSON, the obs gauges and
  ``Simulator.agenda_stats`` carry the agenda tallies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.harness import run_scenario
from repro.perf.scenarios import SCENARIOS, SHARD_WORKLOADS
from repro.substrates.sim.agenda import (HeapAgenda, tally_delta,
                                         tally_snapshot)
from repro.substrates.sim.events import LAZY, NORMAL, URGENT, Event
from repro.substrates.sim.kernel import Simulator

# Quantized times force plenty of exact-tie collisions; mixed
# priorities force the (priority, seq) tie-break to matter.
_op = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 24),
              st.sampled_from([URGENT, NORMAL, LAZY])),
    st.tuples(st.just("cancel"), st.integers(0, 200), st.just(0)),
    st.tuples(st.just("run"), st.integers(0, 24), st.just(0)),
)


class TestFireOrder:
    @given(st.lists(_op, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_fire_order_is_sorted_live_events(self, ops):
        sim = Simulator(seed=0)
        fired = []
        scheduled = []

        def run_and_check(until=None):
            horizon = float("inf") if until is None else until
            expected = sorted((ev.time, ev.priority, ev.seq)
                              for ev in scheduled
                              if ev.pending and ev.time <= horizon)
            del fired[:]
            sim.run(until=until)
            assert [(ev.time, ev.priority, ev.seq)
                    for ev in fired] == expected

        for kind, a, b in ops:
            # Never schedule or run into the past of the paused clock.
            at = max(sim.now, a * 0.25)
            if kind == "push":
                ev = sim.schedule_at(at, b)
                ev.add_callback(fired.append)
                scheduled.append(ev)
            elif kind == "cancel" and scheduled:
                scheduled[a % len(scheduled)].cancel()
            elif kind == "run":
                run_and_check(at)
        run_and_check()
        assert sim.pending_events == 0

    def test_each_entry_leaves_once_as_pop_or_purge(self):
        agenda = HeapAgenda()
        evs = [Event(float(i % 3)) for i in range(6)]
        for ev in evs:
            agenda.push(ev)
        evs[0].cancel()
        evs[3].cancel()
        assert agenda.next_time() == 1.0     # purges both t=0 heads
        assert agenda.next_time() == 1.0     # nothing left to purge
        popped = []
        while True:
            ev = agenda.pop_next()
            if ev is None:
                break
            popped.append(ev)
        assert popped == [evs[1], evs[4], evs[2], evs[5]]
        assert (agenda.inserts, agenda.pops, agenda.purges) == (6, 4, 2)
        assert len(agenda) == 0

    def test_pending_count_skips_dead_without_sorting(self):
        agenda = HeapAgenda()
        evs = [Event(float(i)) for i in range(10)]
        for ev in evs:
            agenda.push(ev)
        for ev in evs[::2]:
            ev.cancel()
        assert agenda.pending_count() == 5
        assert len(agenda) == 10  # dead entries still held
        assert [e.time for e in agenda.ordered()] == [
            1.0, 3.0, 5.0, 7.0, 9.0]


# ----------------------------------------------------------------------
# digest matrix: every scenario × K shards
# ----------------------------------------------------------------------

class TestDigestMatrix:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_digest_stable_across_shards(self, scenario):
        reference = run_scenario(scenario, seed=7, scale="tiny")
        ks = (1, 2, 4) if scenario in SHARD_WORKLOADS else (1,)
        for k in ks:
            got = run_scenario(scenario, seed=7, scale="tiny",
                               workers=k, backend="inline")
            assert got.digest == reference.digest, (
                f"{scenario} drifts at K={k}")


# ----------------------------------------------------------------------
# same-instant semantics: a "batch" is the run of events sharing one
# timestamp
# ----------------------------------------------------------------------

class TestBatchedDelivery:
    def test_same_instant_insertion_during_batch(self):
        fired = []
        sim = Simulator(seed=3)

        def first():
            fired.append("first")
            # Scheduled at the *current* instant: fires at this time,
            # after the entries already queued for it.
            sim.call_at(sim.now, lambda: fired.append("injected"))

        sim.call_at(1.0, first)
        sim.call_at(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "injected"]

    def test_urgent_same_instant_insertion_fires_before_lazy(self):
        fired = []
        sim = Simulator(seed=3)

        def first():
            fired.append("first")
            sim.call_at(sim.now, lambda: fired.append("urgent"),
                        priority=URGENT)

        sim.call_at(1.0, first)
        sim.call_at(1.0, lambda: fired.append("lazy"), priority=LAZY)
        sim.run()
        # The URGENT injection lands before the pending LAZY entry.
        assert fired == ["first", "urgent", "lazy"]

    def test_stop_mid_batch_preserves_suffix(self):
        fired = []
        sim = Simulator(seed=3)
        sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(1.0, sim.stop)
        sim.call_at(1.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["a", "c"]

    def test_max_events_mid_batch_resumes_exactly(self):
        fired = []
        sim = Simulator(seed=3)
        for tag in "abcd":
            sim.call_at(1.0, fired.append, tag)
        sim.run(max_events=2)
        assert fired == ["a", "b"]
        assert sim.now == 1.0
        sim.run()
        assert fired == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# agenda stats export
# ----------------------------------------------------------------------

class TestAgendaStatsExport:
    def test_bench_json_carries_agenda_stats(self):
        result = run_scenario("event-loop", seed=7, scale="tiny")
        stats = result.to_dict()["agenda_stats"]
        assert set(stats) == {"inserts", "pops", "purges", "max_batch"}
        assert stats["inserts"] > 0
        assert stats["pops"] == result.events_executed
        assert stats["purges"] > 0       # event-loop cancels decoys
        assert stats["max_batch"] == 1   # one event per pop

    def test_obs_gauges_mirrored_and_digest_excluded(self):
        sim = Simulator(seed=2)
        sim.obs.enable()
        sim.call_in(0.1, lambda: None)
        sim.run()
        names = {rec["name"] for rec in sim.obs.registry.collect()}
        assert "repro_kernel_agenda_ops" in names
        assert "repro_kernel_agenda_depth" in names
        depth_stats = {rec["labels"]["stat"]
                       for rec in sim.obs.registry.collect()
                       if rec["name"] == "repro_kernel_agenda_depth"}
        assert depth_stats == {"pending", "peak"}
        # Digest exclusion: mutating the kernel gauges inside an event
        # (the digest cache sees only kernel progress) must not move
        # the metrics digest.
        before = sim.obs.metrics_digest()
        sim.call_in(0.1, lambda: sim.obs.kernel_agenda_ops.set(
            10**9, op="probe"))
        sim.run()
        assert sim.obs.kernel_agenda_ops.labels(op="probe").value == 10**9
        assert sim.obs.metrics_digest() == before

    def test_tally_window_reports_max_batch_one(self):
        mark = tally_snapshot(reset_max=True)
        assert tally_delta(mark)["max_batch"] == 0   # nothing ran yet
        sim = Simulator(seed=2)
        for i in range(3):
            sim.call_in(0.1, lambda: None)          # one shared instant
        sim.run()
        delta = tally_delta(mark)
        assert delta == {"inserts": 3, "pops": 3, "purges": 0,
                         "max_batch": 1}
        # A window in which no event ran reports 0 again.
        idle = tally_snapshot(reset_max=True)
        Simulator(seed=2).run()
        assert tally_delta(idle)["max_batch"] == 0

    def test_simulator_agenda_stats_shape(self):
        sim = Simulator(seed=2)
        sim.call_in(0.1, lambda: None)
        sim.run()
        stats = sim.agenda_stats()
        assert set(stats) == {"inserts", "pops", "purges", "depth",
                              "peak_depth"}
        assert stats["inserts"] == 1
        assert stats["pops"] == 1
        assert stats["depth"] == 0
        assert stats["peak_depth"] == 1
