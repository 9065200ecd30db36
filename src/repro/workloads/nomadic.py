"""Nomadic-user workload.

The delegation example of Section D: "becoming a unified messaging node
which migrates closer to a nomadic user while she moves."  A nomadic
user hops between attachment points over time, firing task capsules at
the delegate; the wandering engine should migrate the delegation role
toward the user, cutting task round-trip latency.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..substrates.phys import Datagram
from ..substrates.sim import Simulator
from .adapter import inject

NodeId = Hashable


class NomadicUser:
    """A user whose attachment point walks a route of nodes."""

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 route: List[NodeId], delegate: NodeId,
                 dwell_time: float = 30.0,
                 task_interval: float = 2.0,
                 task_ops: float = 50_000):
        if len(route) < 1:
            raise ValueError("route must contain at least one node")
        if dwell_time <= 0 or task_interval <= 0:
            raise ValueError("times must be positive")
        self.sim = sim
        self.hosts = hosts
        self.route = list(route)
        self.delegate = delegate
        self.dwell_time = float(dwell_time)
        self.task_interval = float(task_interval)
        self.task_ops = float(task_ops)
        self.user_id = f"user-{sim.next_id('user')}"
        self._position = 0
        self.tasks_sent = 0
        self.results: List[Tuple[float, float]] = []  # (sent time, latency)
        self._move_task = None
        self._fire_task = None
        self._pending: Dict[str, float] = {}
        # Dedup in route order (not set order): sink registration order
        # must be a pure function of the route.
        for node in dict.fromkeys(route):
            hosts[node].on_deliver(self._make_sink(node))

    @property
    def attachment(self) -> NodeId:
        return self.route[self._position]

    def _make_sink(self, node: NodeId):
        def sink(packet, from_node):
            payload = packet.payload
            if not isinstance(payload, dict) or \
                    payload.get("kind") != "task-result":
                return
            task_id = payload.get("task")
            sent_at = self._pending.pop(task_id, None)
            if sent_at is not None and node == self.attachment:
                self.results.append((sent_at, self.sim.now - sent_at))
        return sink

    # -- control -------------------------------------------------------------
    def start(self) -> None:
        if self._fire_task is None:
            self._fire_task = self.sim.every(
                self.task_interval, self._fire,
                jitter=self.task_interval * 0.1,
                stream=f"nomad.fire.{self.user_id}")
            self._move_task = self.sim.every(
                self.dwell_time, self._move,
                stream=f"nomad.move.{self.user_id}")

    def stop(self) -> None:
        for task in (self._fire_task, self._move_task):
            if task is not None:
                task.stop()
        self._fire_task = self._move_task = None

    def set_delegate(self, node: NodeId) -> None:
        """Re-target tasks (e.g. after the role migrated)."""
        self.delegate = node

    # -- behaviour -----------------------------------------------------------
    def _move(self) -> None:
        self._position = (self._position + 1) % len(self.route)
        self.sim.trace.emit("nomad.move", user=self.user_id,
                            at=self.attachment)

    def _fire(self) -> None:
        task_id = f"{self.user_id}-task-{self.tasks_sent}"
        here = self.attachment
        packet = Datagram(here, self.delegate, size_bytes=256,
                          created_at=self.sim.now,
                          flow_id=task_id,
                          payload={"kind": "task", "task": task_id,
                                   "ops": self.task_ops,
                                   "origin": here, "reply_to": here})
        self.tasks_sent += 1
        self._pending[task_id] = self.sim.now
        inject(self.hosts, here, packet)

    # -- measurements ------------------------------------------------------
    def mean_latency(self, since: float = 0.0) -> float:
        window = [lat for sent, lat in self.results if sent >= since]
        if not window:
            return float("nan")
        return sum(window) / len(window)

    def completion_ratio(self) -> float:
        return len(self.results) / self.tasks_sent if self.tasks_sent \
            else 0.0
