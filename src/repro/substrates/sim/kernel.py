"""The discrete-event simulation kernel.

A :class:`Simulator` owns a binary-heap agenda (:mod:`repro.substrates.
sim.agenda`) of :class:`~repro.substrates.sim.events.Event` objects and
advances simulated time by popping the earliest event.  Processes
(generator coroutines) are layered on top in
:mod:`repro.substrates.sim.process`.

Design notes
------------
* Deterministic: ties broken by ``(priority, seq)``; all randomness comes
  from :class:`~repro.substrates.sim.rng.RngRegistry` streams owned by the
  simulator, never from global state.
* The kernel is single-threaded by construction — the concurrency of the
  Wandering Network is *simulated* concurrency, which keeps every
  experiment reproducible.
* :meth:`Simulator.run` is the one event loop: it reads the head entry,
  purges it if dead, checks the horizon and event budget, and only then
  pops and fires it, one event at a time.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Dict, Iterator, Optional

from ...obs import Observability
from .agenda import HeapAgenda, tally_absorb
from .errors import SchedulingError
from .events import Event, NORMAL
from .rng import RngRegistry
from .trace import TraceBus

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Every named RNG stream derived through :attr:`rng`
        is a deterministic function of this seed and the stream name.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._agenda = HeapAgenda()
        # Bound once: the agenda never changes after construction and
        # schedule_at is the hottest method in the kernel.
        self._agenda_push = self._agenda.push
        self._stopped = False
        self.events_executed = 0
        #: Deepest the agenda has ever been (pending + lazily-cancelled
        #: entries).  Deterministic for a seeded run, so benchmark
        #: digests may include it.
        self.peak_agenda_depth = 0
        # Agenda counters already folded into the process tally.
        self._stats_mark = [0, 0, 0]
        self.rng = RngRegistry(seed)
        # lets the sanitizer tape stamp draws with simulated time
        self.rng.clock = self
        self.trace = TraceBus(self)
        self.seed = seed
        #: Armed by ``obs.enable(profiling=True)``; ``None`` keeps the
        #: run loop on its unprofiled path.
        self._profiler = None
        #: Armed by ``obs.flight(capacity)``; ``None`` keeps the run
        #: loop free of the ring-buffer append.
        self._flight = None
        self.obs = Observability(self)
        self._id_counts: Dict[str, int] = {}

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def schedule_at(self, time: float, priority: int = NORMAL,
                    name: Optional[str] = None) -> Event:
        """Create and enqueue a bare event at absolute ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} (now={self._now})")
        ev = Event(time, priority, name=name)
        depth = self._agenda_push(ev)
        if depth > self.peak_agenda_depth:
            self.peak_agenda_depth = depth
        return ev

    def schedule(self, delay: float, priority: int = NORMAL,
                 name: Optional[str] = None) -> Event:
        """Create and enqueue a bare event ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, priority, name=name)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any,
                priority: int = NORMAL, name: Optional[str] = None) -> Event:
        """Call ``fn(*args)`` at absolute simulated ``time``."""
        ev = self.schedule_at(time, priority, name=name or getattr(
            fn, "__name__", "call"))
        # Direct (fn, args) storage fires in the same position the old
        # first-callback lambda did, without the closure allocation.
        ev._fn = fn
        ev._args = args
        return ev

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any,
                priority: int = NORMAL, name: Optional[str] = None) -> Event:
        """Call ``fn(*args)`` after ``delay`` simulated seconds.

        This is the hottest scheduling entry point, so the
        ``schedule_at`` body is inlined here — one frame instead of
        three.  ``delay >= 0`` implies ``time >= now``, so the absolute
        time check in ``schedule_at`` is vacuous and dropped.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        ev = Event(self._now + delay, priority,
                   name or getattr(fn, "__name__", "call"))
        ev._fn = fn
        ev._args = args
        depth = self._agenda_push(ev)
        if depth > self.peak_agenda_depth:
            self.peak_agenda_depth = depth
        return ev

    def every(self, interval: float, fn: Callable[..., Any], *args: Any,
              start: Optional[float] = None, jitter: float = 0.0,
              stream: str = "kernel.every") -> "PeriodicTask":
        """Call ``fn(*args)`` every ``interval`` seconds (optionally jittered).

        Returns a :class:`PeriodicTask` handle whose :meth:`~PeriodicTask.
        stop` method cancels future firings.
        """
        return PeriodicTask(self, interval, fn, args, start=start,
                            jitter=jitter, stream=stream)

    def next_id(self, kind: str) -> int:
        """The next number (1, 2, ...) in this simulator's ``kind`` sequence.

        Default ids that name RNG streams come from here, so a run draws
        the same numbers whatever else the process simulated before it.
        """
        n = self._id_counts.get(kind, 0) + 1
        self._id_counts[kind] = n
        return n

    # -- execution --------------------------------------------------------
    def peek(self) -> float:
        """Time of the next pending event, or ``float('inf')``."""
        return self._agenda.next_time()

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        ev = self._agenda.pop_next()
        if ev is None:
            return False
        self._now = ev.time
        flight = self._flight
        if flight is not None:
            flight.note_event(ev.time, ev.name)
        prof = self._profiler
        if prof is not None:
            t0 = prof.clock()
            ev.fire()
            prof.record(ev.name or "event", prof.clock() - t0,
                        len(self._agenda))
        else:
            ev.fire()
        self.events_executed += 1
        return True

    def profile(self, top: int = 10) -> Dict[str, Any]:
        """Kernel profile summary (per-handler wall time, queue depth,
        events/sec).  Empty until ``obs.enable(profiling=True)`` has run
        at least one event."""
        if self.obs.profiler is None:
            return {"events": 0, "wall_s": 0.0, "events_per_sec": 0.0,
                    "max_queue_depth": 0, "mean_queue_depth": 0.0,
                    "handlers": []}
        return self.obs.profiler.summary(top=top)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the agenda empties, ``until`` is reached, or
        ``max_events`` have executed.  Returns the final simulated time.

        Each iteration reads the head entry without removing it: a dead
        head is purged, a head past ``until`` or over the budget ends
        the run where it stands, and only a head that will fire is
        popped — so every pop is one executed event.

        Pause/resume contract: a run paused at a horizon draws no
        extra RNG or counter state — splitting one run into
        ``run(until=t1); run(until=t2); ...`` executes the exact same
        events, callbacks, and stream draws as a single
        ``run(until=tN)``, and between segments ``schedule_at(t)`` is
        legal for any ``t >= now`` (external event injection).  After a
        ``max_events`` break the clock stays at the last executed event
        (never clamped past pending work).
        """
        if until is not None and until < self._now:
            raise SchedulingError(
                f"run(until={until}) is in the past (now={self._now})")
        self._stopped = False
        agenda = self._agenda
        heap = agenda.heap
        # Sentinels collapse the per-iteration None checks into single
        # comparisons: ``t > _INF`` is never true, ``executed == -1``
        # is never true.
        horizon = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        # Attaching a flight recorder or profiler is a run-boundary
        # operation, so the hooks are read once per run.
        flight = self._flight
        prof = self._profiler
        executed = 0
        purged = 0
        budget_hit = False
        try:
            while heap and not self._stopped:
                entry = heap[0]
                ev = entry[3]
                if ev._fired or ev._cancelled:
                    heappop(heap)
                    purged += 1
                    continue
                t = entry[0]
                if t > horizon:
                    break
                if executed == budget:
                    # Clock stays at the last executed event: pending
                    # events at times <= until remain, so advancing to
                    # ``until`` would let time run backwards on resume.
                    budget_hit = True
                    break
                heappop(heap)
                executed += 1
                self._now = t
                if flight is not None:
                    flight.note_event(t, ev.name)
                if prof is not None:
                    t0 = prof.clock()
                    ev.fire()
                    prof.record(ev.name or "event", prof.clock() - t0,
                                len(heap))
                else:
                    # Inlined Event.fire: the head is pending, so the
                    # cancelled/double-fire guards cannot trigger.
                    ev._fired = True
                    fn = ev._fn
                    if fn is not None:
                        fn(*ev._args)
                    for cb in ev.callbacks:
                        cb(ev)
                self.events_executed += 1
            if (until is not None and self._now < until
                    and not self._stopped and not budget_hit):
                self._now = until
        finally:
            agenda.pops += executed
            agenda.purges += purged
            tally_absorb(agenda, self._stats_mark)
            if self.obs.on:
                self.obs.sync_kernel_stats()
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return self._agenda.pending_count()

    def agenda(self) -> Iterator[Event]:
        """Pending events in fire order (for debugging/inspection).

        Sorts entry tuples in C instead of calling a Python key per
        event; cancelled entries are filtered before the sort.
        """
        return iter(self._agenda.ordered())

    def agenda_stats(self) -> Dict[str, int]:
        """This simulator's agenda operation counters (diagnostics)."""
        a = self._agenda
        return {"inserts": a.inserts, "pops": a.pops, "purges": a.purges,
                "depth": len(a), "peak_depth": self.peak_agenda_depth}

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.6g} pending={self.pending_events} "
                f"executed={self.events_executed}>")


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    def __init__(self, sim: Simulator, interval: float,
                 fn: Callable[..., Any], args: tuple,
                 start: Optional[float] = None, jitter: float = 0.0,
                 stream: str = "kernel.every"):
        if interval <= 0:
            raise SchedulingError(f"non-positive interval: {interval}")
        self.sim = sim
        self.interval = float(interval)
        self.fn = fn
        self.args = args
        self.jitter = float(jitter)
        self.stream = stream
        self.fired = 0
        self._stopped = False
        self._event: Optional[Event] = None
        first = self.interval if start is None else max(0.0, start - sim.now)
        self._arm(first)

    def _arm(self, delay: float) -> None:
        if self._stopped:
            return
        if self.jitter > 0.0:
            delay += self.sim.rng.stream(self.stream).uniform(0, self.jitter)
        self._event = self.sim.call_in(delay, self._fire, name="periodic")

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self.fn(*self.args)
        self._arm(self.interval)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
