"""The repository benchmark: host throughput of the simulator, end to end
and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shuttle-storm --seed 42 \\
        --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 35

One run builds and simulates its workload again and again for
``--seconds`` seconds, after one untimed warm-up pass, and checks every
pass: the workload's own invariants, identical counters across passes,
the recorded digest at the default seed, and the warm-up pass's digest
at any seed, which sharded passes must reproduce too.

``--trace 0`` reports the end-to-end metrics: ``events_per_s`` and
``shuttles_per_s`` (simulated events and shuttle dockings per host
second of the simulate phase), ``setup_s`` (host seconds from workload
construction until the first event can run), each the median over the
passes, and ``peak_rss_mb`` (peak resident memory of this process and
its shard workers, up to the third timed pass).  The three host times
are scaled to a reference host speed by a pure-Python probe timed after
every pass (see :func:`host_speed`); the unscaled medians are printed
after them.

``--trace 1`` alternates untraced passes with traced ones, which wrap
one or more public methods per layer (see :mod:`perfbench.spans`), and
reports the per-layer metrics.  Span files land in ``.perfbench_out/``.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only if every pass was correct.  ``--workload all`` runs
every workload in a fresh process of its own and prints their reports.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fewest timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Iterations of :func:`host_probe_ms`: 7-13 ms on a 2-vCPU Xeon VM.
PROBE_STEPS = 5_000
#: Probe time, in ms, of the reference host that end-to-end times are
#: scaled to.
PROBE_REF_MS = 10.0
#: Host time spent probing after each pass, as a share of the pass.
PROBE_SHARE = 0.2
#: Label folded into every digest in place of the catalog's scale.
SCALE = "perfbench"

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("events_per_s", "1/s"),
    ("shuttles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``.
PER_LAYER = (
    ("sim.self_s", "s"), ("sim.ns_per_event", "ns"), ("sim.events", "count"),
    ("sim.agenda_inserts", "count"), ("sim.agenda_pops", "count"),
    ("sim.agenda_purges", "count"), ("sim.max_batch", "count"),
    ("sim.peak_depth", "count"),
    ("ship.receive.calls", "count"), ("ship.receive.self_s", "s"),
    ("ship.dock.calls", "count"), ("ship.dock.self_s", "s"),
    ("ship.dock.p50_us", "us"), ("ship.dock.p99_us", "us"),
    ("ship.send_toward.self_s", "s"), ("ship.rejected_frac", "frac"),
    ("admission.vet.calls", "count"), ("admission.vet.self_s", "s"),
    ("admission.memo_hit_frac", "frac"),
    ("shuttle.clone.self_s", "s"), ("congruence.record.self_s", "s"),
    ("nodeos.exec.self_s", "s"), ("nodeos.forward.self_s", "s"),
    ("routing.next_hop.calls", "count"), ("routing.next_hop.self_s", "s"),
    ("phys.send.calls", "count"), ("phys.send.self_s", "s"),
    ("phys.delivered", "count"), ("phys.dropped", "count"),
    ("knowledge.record.calls", "count"), ("knowledge.record.self_s", "s"),
    ("knowledge.inserts", "count"), ("knowledge.evictions", "count"),
    ("knowledge.touch_frac", "frac"), ("knowledge.evict_per_insert", "ratio"),
    ("shard.barriers", "count"), ("shard.handoffs", "count"),
    ("shard.barrier_stall_s", "s"), ("shard.stall_frac", "frac"),
    ("shard.imbalance", "ratio"), ("shard.max_worker_cpu_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def now() -> float:
    return time.perf_counter()  # via: ignore[VIA003] the benchmark measures host time


class _ProbeItem:
    __slots__ = ("key", "hits")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0

    def hit(self) -> int:
        self.hits += 1
        return self.hits


def host_probe_ms() -> float:
    """Time a fixed pure-Python loop shaped like the simulator's work
    (a bounded heap of tuples, dict look-ups, slotted objects, method
    calls, ``exp``) that calls nothing in the program under test.

    It gauges the host's speed at the moment: on a shared host the
    neighbours' load changes CPU speed, not only wall time, by up to
    1.9x, from one second to the next and for minutes at a time.  Each
    pass's host times are scaled by the probes that follow it (see
    :func:`host_speed`).  The cyclic collector is off while it runs, so
    the program's heap cannot slow it."""
    collecting = gc.isenabled()
    gc.disable()
    start = now()
    heap: List[Any] = []
    items: Dict[int, _ProbeItem] = {}
    acc = 0.0
    for i in range(PROBE_STEPS):
        key = (i * 7919) % 1021
        item = items.get(key)
        if item is None:
            item = items[key] = _ProbeItem(key)
        acc += item.hit()
        heapq.heappush(heap, ((i * 2654435761) % 4093, i, item))
        if len(heap) > 512:
            _, j, popped = heapq.heappop(heap)
            acc += popped.key + math.exp(-j * 1e-6)
        if i % 1000 == 0:
            items.clear()
    elapsed = now() - start
    if collecting:
        gc.enable()
    return elapsed * 1e3


def host_speed(probes_ms: List[float]) -> float:
    """How much faster than the reference host the host was while a pass
    ran: the reference probe time over the median of the probes timed
    right after the pass.  A pass's rates are divided by it and its
    set-up time multiplied by it, so that every end-to-end time reads as
    on a host where the probe takes :data:`PROBE_REF_MS`.

    Paired pass by pass, this cut the spread (interquartile range over
    median) of ``events_per_s`` across runs from 46% unscaled to 3% on
    quanta-pump, and from 16% to 3% on kernel-churn, on a 2-vCPU Xeon
    VM whose probe time wandered between 7 and 13 ms; scaling by the
    whole run's median probe instead left 7-12%."""
    return PROBE_REF_MS / median(probes_ms)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child (the
    shard workers), in MiB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Pass:
    """One build-and-simulate pass of a workload, with its checks."""

    def __init__(self, spec, seed: int, nonce: int, oracle: Optional[str],
                 shards: int = 1):
        from perfbench.workloads import DEFAULT_SEED, DIGESTS
        from repro.perf.digest import run_digest
        from repro.shard.executor import run_sharded, run_single
        workload = spec.make(seed, nonce)
        start = now()
        self.stats: Dict[str, Any] = {}
        self.speed = 1.0   # set by Run.one from the probes after the pass
        if shards == 1:
            counters, work = run_single(workload)
        else:
            counters, work, self.stats = run_sharded(workload, shards,
                                                     backend="mp")
        self.counters = counters
        probe = work["probe"]
        gauges: Dict[str, float] = {}
        for key, value in probe.items():
            if key.startswith("max."):
                name = key.split(".", 2)[1]
                gauges[name] = max(gauges.get(name, value), value)
        self.probe, self.gauges = probe, gauges
        self.setup_s = gauges["ready"] - start
        self.sim_s = gauges["done"] - gauges["ready"]
        self.events = work["events"]
        self.docked = probe["docked"]
        self.digest = run_digest(spec.name, seed, SCALE, counters)
        self.failures = workload.check(counters, probe)
        expected = DIGESTS.get(spec.name) if seed == DEFAULT_SEED \
            else oracle
        if expected is not None and self.digest != expected:
            self.failures.append(f"digest {self.digest} != {expected}")
        if shards > 1 and (self.stats.get("mode") != "sharded"
                           or self.stats.get("k") != shards):
            self.failures.append(f"did not run on {shards} shards")


class Run:
    """The passes of one benchmark run and their correctness tally."""

    def __init__(self, spec, seed: int):
        self.spec, self.seed = spec, seed
        self.attempted = 0
        self.failed = 0
        self.nonce = 0
        self.reference: Optional[Dict[str, Any]] = None
        self.digest = ""
        self.oracle: Optional[str] = None
        self.probes_ms: List[float] = []
        self.unscaled: Dict[str, float] = {}

    def warm_up(self) -> None:
        """One untimed pass: imports, lazy set-up and caches settle.  Its
        digest is the oracle every later pass, sharded ones too, must
        reproduce."""
        first = self.one()
        if first is not None:
            self.oracle = first.digest

    def probe(self, seconds: float) -> None:
        """Time :func:`host_probe_ms` again and again for ``seconds``
        (at least once), close in time to the pass it follows."""
        deadline = now() + seconds
        self.probes_ms.append(host_probe_ms())
        while now() < deadline:
            self.probes_ms.append(host_probe_ms())

    def one(self, shards: int = 1) -> Optional[Pass]:
        """Run and check one pass, then probe the host for a share of
        the time it took; a failed pass returns None."""
        self.attempted += 1
        self.nonce += 1
        started = now()
        first_probe = len(self.probes_ms)
        try:
            result = Pass(self.spec, self.seed, self.nonce, self.oracle,
                          shards)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            self.probe(PROBE_SHARE * (now() - started))
        result.speed = host_speed(self.probes_ms[first_probe:])
        if self.reference is None:
            self.reference, self.digest = result.counters, result.digest
        elif result.counters != self.reference:
            result.failures.append("counters differ between passes")
        if result.failures:
            print(f"FAILED pass {self.attempted}: "
                  f"{'; '.join(result.failures)}", file=sys.stderr)
            self.failed += 1
            return None
        return result


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    passes: List[Pass] = []
    rss_mb = 0.0
    deadline = now() + seconds
    while len(passes) < MIN_PASSES or now() < deadline:
        result = run.one()
        if result is None:
            break
        passes.append(result)
        if len(passes) == MIN_PASSES:
            # Read after a fixed number of passes, not at the end: the
            # process-wide admission memo (4096 entries) keeps growing
            # until it is full, so the peak would follow how many passes
            # the host's speed allowed in the run.
            rss_mb = peak_rss_mb()
    run.unscaled = {
        "events_per_s": median([p.events / p.sim_s for p in passes]),
        "shuttles_per_s": median([p.docked / p.sim_s for p in passes]),
        "setup_s": median([p.setup_s for p in passes]),
    }
    return {
        "events_per_s": median([p.events / p.sim_s / p.speed
                                for p in passes]),
        "shuttles_per_s": median([p.docked / p.sim_s / p.speed
                                  for p in passes]),
        "setup_s": median([p.setup_s * p.speed for p in passes]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(run: Run, seconds: float) -> Dict[str, float]:
    """Alternate untraced and traced passes; per-layer metrics from the
    traced ones, the overhead base from the others.  A workload whose
    ``layer_shards`` is above 1 then runs untraced sharded passes of the
    same inputs, whose executor stats give the shard layer's metrics;
    on the other workloads those read 0."""
    from perfbench import spans
    plain: List[Pass] = []
    traced: List[Pass] = []
    summaries: List[Dict[str, Any]] = []
    deadline = now() + seconds
    while len(traced) < MIN_PASSES or now() < deadline:
        result = run.one()
        if result is None:
            return {}
        plain.append(result)
        for path in spans.span_files(OUT_DIR):
            os.remove(path)
        spans.install(OUT_DIR)
        try:
            result = run.one()
        finally:
            spans.uninstall()
        if result is None:
            return {}
        traced.append(result)
        summaries.append(spans.summarize(spans.span_files(OUT_DIR)))
    sharded: List[Pass] = []
    if run.spec.layer_shards > 1:
        # One CPU for the coordinator and its forked workers.  On a
        # shared VM each barrier otherwise waits for the host to wake an
        # idle vCPU, which made the two-CPU run both slower and about
        # three times noisier than the one-CPU run; pinned, the passes
        # still measure the mp executor's fork, pipes, pickling and
        # barriers, but not parallel speed-up.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            for _ in range(MIN_PASSES):
                result = run.one(run.spec.layer_shards)
                if result is None:
                    return {}
                sharded.append(result)
        finally:
            os.sched_setaffinity(0, cpus)

    def self_s(layer: str) -> float:
        return median([s["self_ns"][layer] / 1e9 for s in summaries])

    last, calls = traced[-1], summaries[-1]["calls"]
    probe = last.probe
    dock_us = sorted(ns / 1e3 for s in summaries for ns in s["dock_ns"])
    quantiles = (statistics.quantiles(dock_us, n=100)
                 if len(dock_us) > 1 else [0.0] * 99)
    sim_self = self_s("sim.run")
    record_calls = calls["knowledge.record"]
    stats = [p.stats for p in sharded]
    stall = median([s["barrier_stall_s"] for s in stats])
    plain_sim = median([p.sim_s for p in plain])
    return {
        "sim.self_s": sim_self,
        "sim.ns_per_event": sim_self * 1e9 / last.events,
        "sim.events": last.events,
        "sim.agenda_inserts": probe["agenda_inserts"],
        "sim.agenda_pops": probe["agenda_pops"],
        "sim.agenda_purges": probe["agenda_purges"],
        "sim.max_batch": last.gauges["max_batch"],
        "sim.peak_depth": last.gauges["peak_depth"],
        "ship.receive.calls": calls["ship.receive"],
        "ship.receive.self_s": self_s("ship.receive"),
        "ship.dock.calls": calls["ship.dock"],
        "ship.dock.self_s": self_s("ship.dock"),
        "ship.dock.p50_us": quantiles[49],
        "ship.dock.p99_us": quantiles[98],
        "ship.send_toward.self_s": self_s("ship.send_toward"),
        "ship.rejected_frac": probe["rejected"] / max(probe["docked"], 1),
        "admission.vet.calls": calls["admission.vet"],
        "admission.vet.self_s": self_s("admission.vet"),
        "admission.memo_hit_frac": probe["memo_hits"] / max(probe["vets"], 1),
        "shuttle.clone.self_s": self_s("shuttle.clone"),
        "congruence.record.self_s": self_s("congruence.record"),
        "nodeos.exec.self_s": self_s("nodeos.exec"),
        "nodeos.forward.self_s": self_s("nodeos.forward"),
        "routing.next_hop.calls": calls["routing.next_hop"],
        "routing.next_hop.self_s": self_s("routing.next_hop"),
        "phys.send.calls": calls["phys.send"],
        "phys.send.self_s": self_s("phys.send"),
        "phys.delivered": probe["phys_delivered"],
        "phys.dropped": probe["phys_dropped"],
        "knowledge.record.calls": record_calls,
        "knowledge.record.self_s": self_s("knowledge.record"),
        "knowledge.inserts": probe["kb_inserts"],
        "knowledge.evictions": probe["kb_evictions"],
        "knowledge.touch_frac": ((record_calls - probe["kb_inserts"])
                                 / max(record_calls, 1)),
        "knowledge.evict_per_insert": (probe["kb_evictions"]
                                       / max(probe["kb_inserts"], 1)),
        "shard.barriers": median([s["barriers"] for s in stats]),
        "shard.handoffs": median([s["handoffs"] for s in stats]),
        "shard.barrier_stall_s": stall,
        "shard.stall_frac": (stall / median([p.sim_s for p in sharded])
                             if sharded else 0.0),
        "shard.imbalance": median([s["imbalance"] for s in stats]),
        "shard.max_worker_cpu_s": median([p.gauges["cpu_s"]
                                          for p in sharded]),
        "trace.overhead_frac": (median([p.sim_s for p in traced])
                                / plain_sim - 1.0),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import spec_named
    spec = spec_named(name)
    run = Run(spec, seed)
    run.warm_up()
    values = (per_layer(run, seconds) if trace
              else end_to_end(run, seconds))
    units = dict(PER_LAYER if trace else END_TO_END)
    correct = run.failed == 0 and bool(values)
    print(f"workload {name}  seed {seed}  passes {run.attempted} "
          f"(1 warm-up)  why: {spec.why}")
    for metric, value in values.items():
        print(f"  {metric:<28} {value:>16.6f} {units[metric]}")
    print(f"  {'failed_frac':<28} {run.failed / run.attempted:>16.6f} frac "
          f"({run.failed} of {run.attempted} passes)")
    print(f"  {'digest':<28} {run.digest:>16}")
    print(f"  {'host_probe_ms':<28} {median(run.probes_ms):>16.6f} ms "
          f"(median of {len(run.probes_ms)}; reference {PROBE_REF_MS} ms)")
    for metric, value in run.unscaled.items():
        print(f"  {'unscaled ' + metric:<28} {value:>16.6f} {units[metric]}")
    metrics = {metric: {"value": values.get(metric, 0.0), "unit": unit}
               for metric, unit in (PER_LAYER if trace else END_TO_END)}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics},
                     sort_keys=True))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process, so peak RSS is per workload."""
    from perfbench.workloads import WORKLOADS
    status = 0
    for spec in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             spec.name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
        status = status or child.returncode
    print(json.dumps({"all": "ok" if status == 0 else "failed"},
                     sort_keys=True))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
