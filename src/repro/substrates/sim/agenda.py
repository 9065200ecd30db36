"""The pending-event store of the discrete-event kernel.

:class:`HeapAgenda` is a ``heapq`` binary heap over ``(time, priority,
seq, event)`` tuples.  Storing tuples instead of :class:`Event` objects
moves every ordering comparison from a Python ``__lt__`` call (which
builds two key tuples per probe) into C tuple comparison; ``seq`` is
unique, so the prefix ``(time, priority, seq)`` is already a total
order and the compare never reaches the Event.

Contract
--------
* Entries leave in exact ``(time, priority, seq)`` order.
* ``__len__`` counts *every* stored entry, pending or lazily cancelled;
  ``peak_agenda_depth`` is digest-visible, so the count must not depend
  on anything but the push/pop sequence.
* Dead (fired/cancelled) entries are discarded only when they reach the
  head (lazy cancellation).

The kernel's run loop (:meth:`Simulator.run`) works on :attr:`HeapAgenda.
heap` directly and folds its pop/purge counts back in on exit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .events import Event

#: Agenda entry: ``(time, priority, seq, event)``.  The 3-field prefix
#: is the kernel's total event order; the tuple compare never reaches
#: the Event (``seq`` is unique).
Entry = Tuple[float, int, int, Event]

_INF = float("inf")


# ----------------------------------------------------------------------
# process-wide diagnostics
# ----------------------------------------------------------------------

# Process-wide agenda-operation tally, folded in by Simulator.run() on
# exit and read by the bench harness / obs export.  Diagnostics only:
# never consulted by simulation logic, never part of any digest.  Shard
# workers fork-inherit a copy and advance it independently; only the
# coordinator's copy is ever reported.
# via: ignore[VIA013]
_TALLY: Dict[str, int] = {
    "inserts": 0, "pops": 0, "purges": 0, "max_batch": 0,
}


def tally_snapshot(reset_max: bool = False) -> Dict[str, int]:
    """Copy the process tally; optionally re-arm the ``max_batch`` mark
    so the next :func:`tally_delta` reports on this window only."""
    snap = dict(_TALLY)
    if reset_max:
        _TALLY["max_batch"] = 0
    return snap


def tally_delta(snapshot: Dict[str, int]) -> Dict[str, int]:
    """Tally movement since ``snapshot`` (counters subtracted,
    ``max_batch`` reported as the current mark).

    The kernel fires one event per pop, so ``max_batch`` is 1 once any
    event ran (0 before); the key stays for readers of the old
    same-timestamp batching tally.
    """
    return {
        "inserts": _TALLY["inserts"] - snapshot["inserts"],
        "pops": _TALLY["pops"] - snapshot["pops"],
        "purges": _TALLY["purges"] - snapshot["purges"],
        "max_batch": _TALLY["max_batch"],
    }


def tally_absorb(agenda: "HeapAgenda", mark: List[int]) -> None:
    """Fold one simulator's agenda counters into the process tally.

    ``mark`` is the simulator-owned ``[inserts, pops, purges]`` list of
    values already folded — repeated ``run()`` calls on one simulator
    contribute only their delta.
    """
    _TALLY["inserts"] += agenda.inserts - mark[0]
    _TALLY["pops"] += agenda.pops - mark[1]
    _TALLY["purges"] += agenda.purges - mark[2]
    if agenda.pops > mark[1]:
        _TALLY["max_batch"] = 1
    mark[0] = agenda.inserts
    mark[1] = agenda.pops
    mark[2] = agenda.purges


# ----------------------------------------------------------------------
# the agenda
# ----------------------------------------------------------------------

class HeapAgenda:
    """Binary-heap agenda over C-comparable entry tuples."""

    __slots__ = ("heap", "inserts", "pops", "purges")

    def __init__(self) -> None:
        self.heap: List[Entry] = []
        self.inserts = 0
        self.pops = 0
        self.purges = 0

    def push(self, ev: Event) -> int:
        """Insert ``ev``; returns the entry count after insertion."""
        heap = self.heap
        heapq.heappush(heap, (ev.time, ev.priority, ev.seq, ev))
        self.inserts += 1
        return len(heap)

    def next_time(self) -> float:
        """Purge dead head entries; the next pending time or ``inf``."""
        heap = self.heap
        while heap:
            ev = heap[0][3]
            if ev._fired or ev._cancelled:
                heapq.heappop(heap)
                self.purges += 1
            else:
                return heap[0][0]
        return _INF

    def pop_next(self) -> Optional[Event]:
        """Pop the earliest pending event (purging dead heads)."""
        heap = self.heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if ev._fired or ev._cancelled:
                self.purges += 1
                continue
            self.pops += 1
            return ev
        return None

    def __len__(self) -> int:
        return len(self.heap)

    def pending_count(self) -> int:
        count = 0
        for entry in self.heap:
            ev = entry[3]
            if not (ev._fired or ev._cancelled):
                count += 1
        return count

    def ordered(self) -> List[Event]:
        """Pending events in fire order (C tuple sort, no key calls)."""
        live = [entry for entry in self.heap
                if not (entry[3]._fired or entry[3]._cancelled)]
        live.sort()
        return [entry[3] for entry in live]
