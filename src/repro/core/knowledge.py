"""Knowledge quanta, facts and net functions (PMP definitions 3.2-3.3).

The Pulsating Metamorphosis Principle postulates:

* "A net function can be based on one or more facts (events,
  experiences).  The combination of net function and facts is called a
  *knowledge quantum* (kq)."
* "Facts have a certain lifetime ... which depends on their clustering
  inside the ships (knowledge base), as well as from their transmission
  intensity, or bandwidth ('weight').  As soon as a fact does not reach
  its frequency threshold, it is deleted to leave space for new facts."
* "Since net functions are based on facts, their lifetime ... depends on
  the facts. ... The lifetime of a knowledge quantum is defined by the
  lifetime of its network function."

This module gives those sentences executable semantics: a fact's weight
is an exponentially-decayed access frequency; a knowledge base sweeps
below-threshold facts; a net function is alive while any supporting fact
class is alive.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from heapq import heappop, heappush
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

#: Near-tie band of the eviction index, relative to the magnitude of
#: the keys: far above the few-ulp rounding of a key or of a decayed
#: weight, far below any gap that orders two facts' weights reliably.
_TIE_MARGIN = 1e-9
#: Rebuild the eviction index once it holds more than this many
#: entries per stored fact (plus a fixed allowance).
_INDEX_SLACK = 4
#: Decayed weights below this are subnormal: rounding no longer tracks
#: the key, so eviction falls back to the exact scan.
_MIN_NORMAL = sys.float_info.min

# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_fact_ids = itertools.count(1)
# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_kq_ids = itertools.count(1)

#: Default decay rate: weight halves roughly every 70 seconds.
DEFAULT_DECAY_RATE = 0.01
#: Default frequency threshold below which a fact is evicted.
DEFAULT_THRESHOLD = 0.2
#: Weight saturation: the paper's "weight" is a transmission *intensity*
#: (a rate), so confirmations saturate instead of accumulating without
#: bound — otherwise one busy hour would pin a fact for a week.
MAX_WEIGHT = 8.0


class Fact:
    """One event/experience recorded by a ship.

    ``fact_class`` is the clustering key (e.g. ``"link-state"``,
    ``"content-request"``, ``"role-usage"``); ``value`` is the payload.
    ``weight`` is the paper's "transmission intensity, or bandwidth":
    it decays exponentially and is bumped on every access/confirmation.
    """

    __slots__ = ("fact_id", "fact_class", "value", "created_at", "source",
                 "threshold", "_weight", "_weight_time", "accesses")

    def __init__(self, fact_class: str, value: Any, created_at: float = 0.0,
                 source: Optional[Hashable] = None,
                 weight: float = 1.0,
                 threshold: float = DEFAULT_THRESHOLD):
        if weight <= 0:
            raise ValueError(f"non-positive initial weight {weight}")
        if threshold < 0:
            raise ValueError(f"negative threshold {threshold}")
        self.fact_id = next(_fact_ids)
        self.fact_class = fact_class
        self.value = value
        self.created_at = float(created_at)
        self.source = source
        self.threshold = float(threshold)
        self._weight = float(weight)
        self._weight_time = float(created_at)
        self.accesses = 0

    def weight(self, now: float, decay_rate: float = DEFAULT_DECAY_RATE) -> float:
        """Current decayed weight."""
        dt = max(0.0, now - self._weight_time)
        return self._weight * math.exp(-decay_rate * dt)

    def touch(self, now: float, boost: float = 1.0,
              decay_rate: float = DEFAULT_DECAY_RATE) -> float:
        """Record an access/confirmation; returns the new weight.

        Weight saturates at :data:`MAX_WEIGHT` — it models intensity,
        not a lifetime counter.
        """
        self._weight = min(MAX_WEIGHT,
                           self.weight(now, decay_rate) + boost)
        self._weight_time = now
        self.accesses += 1
        return self._weight

    def alive(self, now: float, decay_rate: float = DEFAULT_DECAY_RATE) -> bool:
        return self.weight(now, decay_rate) >= self.threshold

    def expiry_time(self, decay_rate: float = DEFAULT_DECAY_RATE) -> float:
        """The time at which the weight crosses the threshold."""
        if self.threshold <= 0:
            return float("inf")
        if self._weight <= self.threshold:
            return self._weight_time
        return self._weight_time + math.log(
            self._weight / self.threshold) / decay_rate

    def snapshot(self, now: float) -> Dict[str, Any]:
        """Serializable summary (what genetic transcoding ships around)."""
        return {"fact_class": self.fact_class, "value": self.value,
                "weight": self.weight(now), "source": self.source}

    def __repr__(self) -> str:
        return (f"<Fact #{self.fact_id} {self.fact_class} "
                f"value={self.value!r}>")


class NetFunction:
    """A network function and the fact classes that keep it alive.

    "Which facts determine the presence of a particular function inside
    the Wandering Network is defined individually for each function."
    """

    __slots__ = ("function_id", "supporting_classes", "min_support_weight")

    def __init__(self, function_id: str,
                 supporting_classes: Iterable[str],
                 min_support_weight: float = DEFAULT_THRESHOLD):
        self.function_id = function_id
        self.supporting_classes: Tuple[str, ...] = tuple(supporting_classes)
        self.min_support_weight = float(min_support_weight)

    def alive(self, kb: "KnowledgeBase", now: float) -> bool:
        """A function lives while any supporting fact class carries weight."""
        if not self.supporting_classes:
            return True  # unconditioned functions never fact-expire
        return any(
            kb.class_weight(cls, now) >= self.min_support_weight
            for cls in self.supporting_classes)

    def __repr__(self) -> str:
        return (f"<NetFunction {self.function_id} "
                f"supports={list(self.supporting_classes)}>")


class KnowledgeQuantum:
    """A transportable (function, facts) capsule — the PMP's ``kq``.

    Knowledge quanta are "a new type of capsules which are distributed
    via shuttles"; their lifetime equals their function's lifetime.
    """

    __slots__ = ("kq_id", "function_id", "fact_snapshots", "origin",
                 "created_at", "generation")

    def __init__(self, function_id: str,
                 fact_snapshots: List[Dict[str, Any]],
                 origin: Optional[Hashable] = None,
                 created_at: float = 0.0, generation: int = 0):
        self.kq_id = next(_kq_ids)
        self.function_id = function_id
        self.fact_snapshots = list(fact_snapshots)
        self.origin = origin
        self.created_at = float(created_at)
        #: How many ship-to-ship transfers this kq has survived.
        self.generation = int(generation)

    @property
    def size_bytes(self) -> int:
        """Wire size: a compact record per fact plus a function header."""
        return 64 + 48 * len(self.fact_snapshots)

    def aged(self) -> "KnowledgeQuantum":
        """A copy as re-emitted by a relaying ship."""
        return KnowledgeQuantum(self.function_id, self.fact_snapshots,
                                self.origin, self.created_at,
                                self.generation + 1)

    def __repr__(self) -> str:
        return (f"<kq #{self.kq_id} fn={self.function_id} "
                f"facts={len(self.fact_snapshots)} gen={self.generation}>")


class KnowledgeBase:
    """A ship's fact store with frequency-threshold eviction.

    Facts cluster by ``fact_class``; the class weight (sum of member
    weights) is what keeps the class's dependent functions alive.
    ``capacity`` bounds the store — when full, the lowest-weight fact is
    displaced ("deleted to leave space for new facts"), the lowest fact
    id breaking ties.

    Finding that fact takes O(log n), not a decay of every stored fact.
    For ``now`` at or after a fact's weight time, ``w·exp(-r·(now-t))``
    ranks facts exactly as the time-invariant key ``log w + r·t`` does,
    so facts are grouped by their stored ``(w, t)`` and the groups kept
    in a heap on that key, each holding a min-heap of fact ids.  An
    entry is live while its fact is still stored with the group's
    ``(w, t)``: touches push a fresh entry, removals need none, stale
    entries are dropped lazily, and the heaps are rebuilt when they
    outgrow the store.  A store that never fills never builds them.
    Rounding can order near-equal keys unlike the decayed weights, so
    every group within a small relative band of the minimum key is
    examined and the victim picked among their heads by
    ``(weight(now), fact_id)`` — the victim a scan of the whole store
    picks.  That scan still serves what the key cannot rank: a ``now``
    earlier than a stored weight time, a non-finite or non-positive
    weight, and a subnormal decayed weight.

    Stored facts change weight only through the store (:meth:`record`,
    :meth:`touch_class`).
    """

    def __init__(self, capacity: int = 512,
                 decay_rate: float = DEFAULT_DECAY_RATE):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if decay_rate <= 0:
            raise ValueError(f"decay rate must be positive: {decay_rate}")
        self.capacity = int(capacity)
        self.decay_rate = float(decay_rate)
        self._facts: Dict[int, Fact] = {}
        self._by_class: Dict[str, Dict[int, Fact]] = {}
        # Eviction index, built at the first eviction: a heap of
        # (key, w, t, ids) per (w, t) group, the groups by (w, t), and
        # the number of ids held in them.
        self._indexed = False
        self._ranks: List[Tuple[float, float, float, List[int]]] = []
        self._groups: Dict[Tuple[float, float], List[int]] = {}
        self._entries = 0
        # Latest weight time indexed; +inf while an unrankable weight
        # is stored.  Eviction at an earlier ``now`` scans.
        self._horizon = -math.inf
        self.evictions = 0
        self.inserts = 0
        # content_digest() cache: valid while the *membership* of the
        # store is unchanged (weight touches don't enter the digest).
        self._digest: Optional[str] = None
        self._digest_dirty = True
        self.digest_hits = 0

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact_id: int) -> bool:
        return fact_id in self._facts

    # -- insertion ----------------------------------------------------------
    def record(self, fact: Fact, now: float) -> Fact:
        """Insert a fact, displacing the weakest if at capacity.

        If an equal (class, value) fact already exists it is *touched*
        instead — repetition is confirmation, not duplication.
        """
        existing = self.find(fact.fact_class, fact.value)
        if existing is not None:
            existing.touch(now, decay_rate=self.decay_rate)
            self._index(existing)
            return existing
        if len(self._facts) >= self.capacity:
            self._remove(self._weakest(now))
            self.evictions += 1
        self._facts[fact.fact_id] = fact
        self._by_class.setdefault(fact.fact_class, {})[fact.fact_id] = fact
        self._index(fact)
        self.inserts += 1
        self._digest_dirty = True
        return fact

    def _index(self, fact: Fact) -> None:
        """Rank a stored fact at its current ``(w, t)``."""
        if not self._indexed:
            return
        w = fact._weight
        t = fact._weight_time
        if t > self._horizon:
            self._horizon = t
        ids = self._groups.get((w, t))
        if ids is None:
            key = math.log(w) + self.decay_rate * t if w > 0.0 else math.nan
            if not math.isfinite(key):
                self._horizon = math.inf
                return
            ids = self._groups[(w, t)] = [fact.fact_id]
            heappush(self._ranks, (key, w, t, ids))
        else:
            heappush(ids, fact.fact_id)
        self._entries += 1
        if self._entries > _INDEX_SLACK * len(self._facts) + 64:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the eviction index from the stored facts alone."""
        self._ranks = []
        self._groups = {}
        self._entries = 0
        self._horizon = -math.inf
        for fact in self._facts.values():
            self._index(fact)

    def _weakest(self, now: float) -> Fact:
        """The fact with the least ``(weight(now), fact_id)``."""
        if not self._indexed:
            self._indexed = True
            self._compact()
        rate = self.decay_rate
        if now >= self._horizon:
            ranks, groups, facts = self._ranks, self._groups, self._facts
            near = []
            limit = math.inf
            while ranks and ranks[0][0] <= limit:
                entry = heappop(ranks)
                key, w, t, ids = entry
                while ids:
                    head = facts.get(ids[0])
                    if (head is not None and head._weight == w
                            and head._weight_time == t):
                        break
                    heappop(ids)
                    self._entries -= 1
                if not ids:
                    del groups[(w, t)]
                    continue
                if not near:
                    limit = key + _TIE_MARGIN * (1.0 + abs(key)
                                                 + rate * abs(now))
                near.append((entry, head))
            for entry, _ in near:
                heappush(ranks, entry)
            if near:
                weight, _, victim = min((f.weight(now, rate), f.fact_id, f)
                                        for _, f in near)
                if weight >= _MIN_NORMAL:
                    return victim
        return min(self._facts.values(),
                   key=lambda f: (f.weight(now, rate), f.fact_id))

    def _remove(self, fact: Fact) -> None:
        del self._facts[fact.fact_id]
        self._digest_dirty = True
        members = self._by_class.get(fact.fact_class)
        if members is not None:
            members.pop(fact.fact_id, None)
            if not members:
                del self._by_class[fact.fact_class]

    # -- queries --------------------------------------------------------------
    def find(self, fact_class: str, value: Any) -> Optional[Fact]:
        members = self._by_class.get(fact_class)
        if members:
            for fact in members.values():
                if fact.value == value:
                    return fact
        return None

    def facts_of_class(self, fact_class: str) -> List[Fact]:
        members = self._by_class.get(fact_class)
        return list(members.values()) if members else []

    def all_facts(self) -> List[Fact]:
        return list(self._facts.values())

    def classes(self) -> List[str]:
        return list(self._by_class)

    def class_weight(self, fact_class: str, now: float) -> float:
        return sum(f.weight(now, self.decay_rate)
                   for f in self.facts_of_class(fact_class))

    # -- lifetime ------------------------------------------------------------
    def sweep(self, now: float) -> List[Fact]:
        """Evict every fact below its frequency threshold; returns them."""
        dead = [f for f in self._facts.values()
                if not f.alive(now, self.decay_rate)]
        for fact in dead:
            self._remove(fact)
        self.evictions += len(dead)
        return dead

    def touch_class(self, fact_class: str, now: float,
                    boost: float = 1.0) -> int:
        """Confirm every fact of a class (e.g. the class was transmitted)."""
        facts = self.facts_of_class(fact_class)
        for fact in facts:
            fact.touch(now, boost, self.decay_rate)
            self._index(fact)
        return len(facts)

    # -- content digest -------------------------------------------------------
    def content_digest(self) -> str:
        """Deterministic fingerprint of the store's membership.

        Covers the sorted multiset of ``(fact_class, value, source)``
        triples — the cross-run-comparable content.  Deliberately
        excludes fact ids (drawn from a process-global counter) and
        decayed weights (functions of the query time), so two same-seed
        runs agree and the digest is stable between membership changes.

        The canonical-JSON/sha256 encoding is recomputed only when a
        fact was inserted or removed since the last call; weight
        touches preserve membership and correctly reuse the cache.
        """
        if not self._digest_dirty and self._digest is not None:
            self.digest_hits += 1
            return self._digest
        content = sorted((fact.fact_class, repr(fact.value),
                          repr(fact.source))
                         for fact in self._facts.values())
        payload = json.dumps(content, sort_keys=True, default=repr)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        self._digest = digest
        self._digest_dirty = False
        return digest

    # -- knowledge quanta -----------------------------------------------------
    def make_quantum(self, function: NetFunction, now: float,
                     origin: Optional[Hashable] = None,
                     max_facts: int = 16) -> KnowledgeQuantum:
        """Package a function with its strongest supporting facts."""
        supporting: List[Fact] = []
        for cls in function.supporting_classes:
            supporting.extend(self.facts_of_class(cls))
        supporting.sort(key=lambda f: f.weight(now, self.decay_rate),
                        reverse=True)
        snaps = [f.snapshot(now) for f in supporting[:max_facts]]
        return KnowledgeQuantum(function.function_id, snaps, origin=origin,
                                created_at=now)

    def absorb_quantum(self, kq: KnowledgeQuantum, now: float) -> int:
        """Integrate a received kq's facts; returns facts recorded.

        Received weights are honoured (transmission intensity counts
        toward a fact's bandwidth), capped at the local insert boost.
        """
        count = 0
        for snap in kq.fact_snapshots:
            fact = Fact(snap["fact_class"], snap["value"], created_at=now,
                        source=snap.get("source"),
                        weight=max(0.1, min(snap.get("weight", 1.0), 4.0)))
            self.record(fact, now)
            count += 1
        return count

    def __repr__(self) -> str:
        return (f"<KnowledgeBase facts={len(self._facts)}/{self.capacity} "
                f"classes={len(self._by_class)}>")
