"""The benchmark's three workloads, built on the public ShardWorkload API.

Every workload is a :class:`~repro.shard.executor.ShardWorkload`, so one
loop in ``run.py`` runs them all through
:func:`~repro.shard.executor.run_single`, and the shard layer's passes
of shuttle-storm through :func:`~repro.shard.executor.run_sharded`.
The :class:`Probed` mixin adds what the benchmark needs on top of each
workload's own ``collect``:

* host timestamps of "first event runnable" and "simulation finished",
  taken inside the process that runs the shard (so a forked worker's
  set-up is timed where it happens);
* layer counters (fabric, ships, admission, knowledge, agenda) as
  deltas from the end of set-up;
* the span flush of the traced pass (see :mod:`perfbench.spans`).

These extras travel as ``pb.*`` keys through the executor's summed
partials and are split off again in ``finalize``, so the counters that
are digested are exactly the catalog workload's counters.  Keys named
``pb.max.<name>.<shard>`` are per-shard gauges; ``run.py`` takes their
maximum.

Inputs are a pure function of ``seed``: the seed becomes the
simulator's master seed, and every random draw (shuttle destinations,
timer jitter, which earlier quantum a fact repeats) comes from a named
stream derived from it.  ``nonce`` only salts quantum payload values so
that no payload repeats across the passes of one process; it changes
no counter.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, Hashable, NamedTuple, Optional, Tuple

from repro.core.knowledge import KnowledgeQuantum
from repro.core.shuttle import (OP_ACQUIRE_ROLE, OP_DEPLOY_QUANTUM,
                                OP_SET_NEXT_STEP, Directive, Shuttle)
from repro.core.wandering_network import (WanderingNetwork,
                                          WanderingNetworkConfig)
from repro.perf.scenarios import ShuttleStormWorkload
from repro.shard.executor import ShardWorkload, shard_fabric_factory
from repro.substrates.phys import grid_topology
from repro.substrates.sim.agenda import tally_delta, tally_snapshot

from . import spans

Owned = Optional[FrozenSet[Hashable]]

#: The seed whose digests are recorded in :data:`DIGESTS`.
DEFAULT_SEED = 42


class Probed:
    """Mixin: set-up/finish timestamps and layer counters per shard."""

    __slots__ = ()

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        super().setup(ctx, owned)
        ships = _owned_ships(ctx, owned)
        verifier = ships[0].admission   # one verifier per process
        ctx["pb.mark"] = {
            "vets": verifier.vets,
            "memo_hits": verifier.verdict_cache_hits,
            "kb.inserts": sum(s.knowledge.inserts for s in ships),
            "kb.evictions": sum(s.knowledge.evictions for s in ships),
            "agenda": tally_snapshot(reset_max=True),
        }
        spans.restart()
        ctx["pb.ready"] = (
            time.perf_counter(),  # via: ignore[VIA003] host set-up timing, never digested
            time.process_time())

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        done = time.perf_counter()  # via: ignore[VIA003] host run timing, never digested
        cpu = time.process_time()
        totals = super().collect(ctx, owned)
        ready, ready_cpu = ctx["pb.ready"]
        shard = "all" if owned is None else "".join(
            c for c in min(repr(n) for n in owned) if c.isalnum() or c == "_")
        ships = _owned_ships(ctx, owned)
        mark = ctx["pb.mark"]
        verifier = ships[0].admission
        fabric = ctx["fabric"]
        agenda = tally_delta(mark["agenda"])
        totals.update({
            f"pb.max.ready.{shard}": ready,
            f"pb.max.done.{shard}": done,
            f"pb.max.cpu_s.{shard}": cpu - ready_cpu,
            f"pb.max.peak_depth.{shard}": ctx["sim"].peak_agenda_depth,
            f"pb.max.max_batch.{shard}": agenda["max_batch"],
            "pb.events": ctx["sim"].events_executed,
            "pb.agenda_inserts": agenda["inserts"],
            "pb.agenda_pops": agenda["pops"],
            "pb.agenda_purges": agenda["purges"],
            "pb.docked": sum(s.shuttles_processed + s.shuttles_rejected
                             for s in ships),
            "pb.rejected": sum(s.shuttles_rejected for s in ships),
            "pb.self_delivered": sum(s.packets_delivered for s in ships),
            "pb.phys_sent": fabric.packets_sent,
            "pb.phys_delivered": fabric.packets_delivered,
            "pb.phys_dropped": fabric.packets_dropped,
            "pb.vets": verifier.vets - mark["vets"],
            "pb.memo_hits": verifier.verdict_cache_hits - mark["memo_hits"],
            "pb.kb_inserts": (sum(s.knowledge.inserts for s in ships)
                              - mark["kb.inserts"]),
            "pb.kb_evictions": (sum(s.knowledge.evictions for s in ships)
                                - mark["kb.evictions"]),
        })
        spans.flush(f"{self.name}-{shard}")
        return totals

    def finalize(self, totals: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        probe = {key[3:]: totals.pop(key)
                 for key in sorted(totals) if key.startswith("pb.")}
        counters, work = super().finalize(totals)
        return counters, dict(work, probe=probe)


def _owned_ships(ctx: Dict[str, Any], owned: Owned) -> list:
    ships = ctx["wn"].ships
    if owned is None:
        return [ships[node] for node in sorted(ships, key=repr)]
    return [ships[node] for node in sorted(owned, key=repr)]


def _quiet_network(seed: int, rows: int, cols: int, latency: float,
                   owned: Owned) -> WanderingNetwork:
    """A grid network whose autopoietic loop is parked beyond the run,
    so the workload's own traffic is the only event source."""
    config = WanderingNetworkConfig(
        seed=seed, router="static", resonance_enabled=False,
        horizontal_wandering=False, vertical_wandering=False,
        audits_enabled=False, pulse_interval=1e9, publish_interval=1e9)
    return WanderingNetwork(grid_topology(rows, cols, latency=latency),
                            config, fabric_factory=shard_fabric_factory(owned))


class _QuietGrid(ShardWorkload):
    """A quiet grid network replica per shard, sized by ``p``."""

    latency = 0.01
    __slots__ = ("p",)

    def topology(self):
        return grid_topology(self.p["rows"], self.p["cols"],
                             latency=self.latency)

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        wn = _quiet_network(self.seed, self.p["rows"], self.p["cols"],
                            self.latency, owned)
        return {"wn": wn, "sim": wn.sim, "fabric": wn.fabric}


# ----------------------------------------------------------------------
# kernel-churn
# ----------------------------------------------------------------------

class KernelChurnWorkload(_QuietGrid):
    """Jittered timer chains; every fourth hop schedules and cancels a
    decoy one simulated second ahead, which keeps the agenda about 2-3k
    entries deep.  When a chain ends it sends one role shuttle across a
    three-ship line, so ``shuttles_per_s`` is defined here too; those
    64 shuttles are a trickle beside the chains' 128k events."""

    name = "kernel-churn"
    __slots__ = ()

    def __init__(self, seed: int, nonce: int = 0):
        super().__init__(seed, "perfbench")
        self.p = {"rows": 1, "cols": 3, "chains": 64, "hops": 2000}

    def horizon(self) -> float:
        return 1e6

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        wn, sim = ctx["wn"], ctx["sim"]
        nodes = sorted(wn.ships, key=repr)
        src, dst = nodes[0], nodes[-1]
        template = Shuttle(src, dst,
                           directives=[
                               Directive(OP_ACQUIRE_ROLE,
                                         role_id="fn.caching"),
                               Directive(OP_SET_NEXT_STEP,
                                         role_id="fn.caching")],
                           credential=wn.credential,
                           interface=wn.ships[src].interface).freeze_cargo()
        rng = sim.rng.stream("perfbench.kernel_churn")
        tally = ctx["churn"] = {"hops": 0, "cancelled": 0, "sent": 0}

        def hop(chain: int, remaining: int) -> None:
            tally["hops"] += 1
            if remaining <= 0:
                shuttle = template.clone()
                shuttle.created_at = sim.now
                wn.ships[src].send_toward(shuttle)
                tally["sent"] += 1
                return
            delay = 0.001 + rng.uniform(0.0, 0.01)
            sim.call_in(delay, hop, chain, remaining - 1, name="bench-hop")
            if remaining % 4 == 0:
                sim.schedule(delay + 1.0, name="bench-decoy").cancel()
                tally["cancelled"] += 1

        for chain in range(self.p["chains"]):
            sim.call_in(0.001 * (chain + 1), hop, chain, self.p["hops"],
                        name="bench-hop")

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        sim = ctx["sim"]
        return dict(ctx["churn"], events_executed=sim.events_executed,
                    final_time=round(sim.now, 9),
                    peak_agenda_depth=sim.peak_agenda_depth)

    def finalize(self, totals: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, int]]:
        return dict(totals), {"events": totals["events_executed"],
                              "shuttles": totals["sent"]}

    def check(self, counters: Dict[str, Any],
              probe: Dict[str, Any]) -> list:
        chains, hops = self.p["chains"], self.p["hops"]
        return _failures(
            ("every scheduled hop ran",
             counters["hops"] == chains * (hops + 1)),
            ("one shuttle per chain", counters["sent"] == chains),
            ("every shuttle docked", probe["docked"] == chains),
            ("no fabric drops", probe["phys_dropped"] == 0))


# ----------------------------------------------------------------------
# shuttle-storm (its shard-layer passes run the same class on two shards)
# ----------------------------------------------------------------------

class ShuttleStorm(Probed, ShuttleStormWorkload):
    """The catalog's shuttle storm on a 5x5 grid, 500 shuttles from
    each of four sources; the digested counters are the catalog's."""

    __slots__ = ()

    def __init__(self, seed: int, nonce: int = 0):
        super().__init__(seed, "full")
        self.p = {"rows": 5, "cols": 5, "per_source": 500}

    def check(self, counters: Dict[str, Any],
              probe: Dict[str, Any]) -> list:
        return _failures(
            ("sent == processed + rejected + self-delivered",
             counters["sent"] == counters["processed"]
             + counters["rejected"] + probe["self_delivered"]),
            ("every source sent its quota",
             counters["sent"] == len(self.roles) * self.p["per_source"]),
            ("no fabric drops", probe["phys_dropped"] == 0))


# ----------------------------------------------------------------------
# quanta-pump
# ----------------------------------------------------------------------

class QuantaPumpWorkload(_QuietGrid):
    """Every ship pumps knowledge quanta at its ring successor.

    Each quantum carries ``facts`` facts: the first ``new`` are values
    never sent before, the rest repeat the new values of a quantum one
    to three steps earlier (drawn per quantum; the first quantum is all
    new), so ``record`` takes its touch path and its insert-and-evict
    path about equally often.  Set-up fills every store to capacity, so
    each new fact evicts one.  Every payload is unique, so the
    admission memo never hits.
    """

    name = "quanta-pump"
    __slots__ = ()

    def __init__(self, seed: int, nonce: int = 0):
        super().__init__(seed, "perfbench")
        self.p = {"rows": 4, "cols": 5, "per_node": 10, "facts": 24,
                  "new": 12, "prefill_classes": 16, "nonce": nonce}

    def horizon(self) -> float:
        return round(0.1 * (self.p["per_node"] + 4) + 2.0, 9)

    def _value(self, src: int, quantum: int, k: int) -> str:
        # Fixed width: token-bucket waits depend on payload size only.
        return f"{self.p['nonce']:06d}-{src:04d}-{quantum:06d}-{k:02d}"

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        wn = ctx["wn"]
        nodes = sorted(wn.ships, key=repr)
        ctx["sent"] = [0] * len(nodes)
        for index, node in enumerate(nodes):
            if owned is None or node in owned:
                ship = wn.ships[node]
                classes = self.p["prefill_classes"]
                for i in range(ship.knowledge.capacity):
                    ship.record_fact(f"prefill.{i % classes}",
                                     f"prefill-{i:04d}")
                self._install(ctx, wn, nodes, index)

    def _install(self, ctx, wn, nodes, index):
        sim = wn.sim
        src = nodes[index]
        dst = nodes[(index + 1) % len(nodes)]
        rng = sim.rng.stream(f"perfbench.quanta_pump.{index}")
        quota, facts, new = (self.p["per_node"], self.p["facts"],
                             self.p["new"])
        counts = ctx["sent"]

        def pump() -> None:
            i = counts[index]
            if i >= quota:
                task.stop()
                return
            back = min(i, 1 + rng.randrange(3))
            snaps = []
            for k in range(facts):
                if k < new or back == 0:
                    value = self._value(index, i, k)
                else:
                    value = self._value(index, i - back, k - new)
                snaps.append({"fact_class": f"pump.{k % 4}", "value": value,
                              "weight": 1.0})
            quantum = KnowledgeQuantum(f"bench.pump{index:04d}", snaps)
            shuttle = Shuttle(src, dst,
                              directives=[Directive(OP_DEPLOY_QUANTUM,
                                                    quantum=quantum)],
                              credential=wn.credential,
                              interface=wn.ships[src].interface)
            shuttle.freeze_cargo()
            wn.ships[src].send_toward(shuttle)
            counts[index] = i + 1

        task = sim.every(0.1, pump)

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        ships = _owned_ships(ctx, owned)
        return {
            "sent": sum(ctx["sent"]),
            "processed": sum(s.shuttles_processed for s in ships),
            "rejected": sum(s.shuttles_rejected for s in ships),
            "facts": sum(len(s.knowledge) for s in ships),
            "events_executed": ctx["sim"].events_executed,
        }

    def finalize(self, totals: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, int]]:
        counters = dict(totals, final_time=round(self.horizon(), 9))
        return counters, {"events": totals["events_executed"],
                          "shuttles": totals["processed"]
                          + totals["rejected"]}

    def check(self, counters: Dict[str, Any],
              probe: Dict[str, Any]) -> list:
        ships = self.p["rows"] * self.p["cols"]
        return _failures(
            ("sent == processed + rejected",
             counters["sent"] == counters["processed"]
             + counters["rejected"]),
            ("every ship sent its quota",
             counters["sent"] == ships * self.p["per_node"]),
            ("stores stay at capacity", counters["facts"] == ships * 512),
            ("no fabric drops", probe["phys_dropped"] == 0))


class KernelChurn(Probed, KernelChurnWorkload):
    __slots__ = ()


class QuantaPump(Probed, QuantaPumpWorkload):
    __slots__ = ()


def _failures(*checks: Tuple[str, bool]) -> list:
    return [name for name, ok in checks if not ok]


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------

class Spec(NamedTuple):
    name: str
    make: type
    why: str
    #: Shards of the extra passes whose executor stats give the shard
    #: layer's metrics in the traced run; 1 for none.
    layer_shards: int = 1


WORKLOADS: Tuple[Spec, ...] = (
    Spec("kernel-churn", KernelChurn,
         "Timer chains with lazy cancels keep a 2-3k-deep agenda busy and "
         "almost all self time in substrates.sim, so agenda and loop "
         "changes show here first."),
    Spec("shuttle-storm", ShuttleStorm,
         "Template clones routed, admitted (memo hits) and interpreted "
         "over a shallow agenda: the shuttle hot path, where the kernel "
         "is only about a fifth of the time.  Its traced run adds passes "
         "of the same inputs over two mp shard workers sharing one CPU, "
         "the only passes where barriers, pipes and handoffs (the shard "
         "layer) take most of the time.", layer_shards=2),
    Spec("quanta-pump", QuantaPump,
         "Unique quanta miss the admission memo and half-new facts drive "
         "KnowledgeBase.record's touch and evict paths at full stores: "
         "the knowledge layer's write side."),
)

#: Run digests at :data:`DEFAULT_SEED`, by workload name; sharded
#: passes must reproduce them too.
DIGESTS: Dict[str, str] = {
    "kernel-churn": "def43a84a0d33bfb",
    "shuttle-storm": "0e6a256df8a69491",
    "quanta-pump": "5534fc0046ac9305",
}


def spec_named(name: str) -> Spec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    known = ", ".join(spec.name for spec in WORKLOADS)
    raise KeyError(f"unknown workload {name!r} (known: {known})")
