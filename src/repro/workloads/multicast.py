"""Multicast session workload.

Exercises the fission role ("generating additional packets for
multicasting").  Two modes:

* ``"network"`` — the source sends one stream to a fission point which
  expands it per subscriber (the active-network way);
* ``"unicast"`` — the source sends one copy per subscriber end-to-end
  (what a passive network must do).

The backbone-byte comparison between the two is the fission row of the
Table 1 benchmark.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from ..substrates.phys import Datagram
from ..substrates.sim import Simulator
from .adapter import inject

NodeId = Hashable


class MulticastSession:
    """One source streaming to many subscribers."""

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 source: NodeId, fission_point: NodeId,
                 subscribers: List[NodeId],
                 rate_pps: float = 5.0, packet_bytes: int = 1200,
                 mode: str = "network"):
        if mode not in ("network", "unicast"):
            raise ValueError(f"unknown mode {mode!r}")
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.sim = sim
        self.hosts = hosts
        self.source = source
        self.fission_point = fission_point
        self.subscribers = list(subscribers)
        self.rate_pps = float(rate_pps)
        self.packet_bytes = int(packet_bytes)
        self.mode = mode
        self.group = f"group-{sim.next_id('group')}"
        self.packets_sent = 0
        self.deliveries = 0
        self._task = None
        for subscriber in self.subscribers:
            hosts[subscriber].on_deliver(self._make_sink())

    def _make_sink(self):
        def sink(packet, from_node):
            payload = packet.payload
            if isinstance(payload, dict) and \
                    payload.get("group") == self.group:
                self.deliveries += 1
        return sink

    # -- control -----------------------------------------------------------
    def subscribe_all(self) -> None:
        """Send subscribe control packets to the fission point."""
        for subscriber in self.subscribers:
            control = Datagram(subscriber, self.fission_point,
                               size_bytes=64, created_at=self.sim.now,
                               payload={"kind": "subscribe",
                                        "group": self.group,
                                        "member": subscriber})
            inject(self.hosts, subscriber, control)

    def start(self) -> None:
        if self._task is None:
            if self.mode == "network":
                self.subscribe_all()
            self._task = self.sim.every(1.0 / self.rate_pps, self._emit,
                                        jitter=0.05 / self.rate_pps,
                                        stream=f"mcast.{self.group}")

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- emission -----------------------------------------------------------
    def _emit(self) -> None:
        if self.mode == "network":
            packet = Datagram(self.source, self.fission_point,
                              size_bytes=self.packet_bytes,
                              created_at=self.sim.now,
                              flow_id=self.group,
                              payload={"kind": "media",
                                       "group": self.group,
                                       "seq": self.packets_sent})
            self.packets_sent += 1
            inject(self.hosts, self.source, packet)
        else:
            for subscriber in self.subscribers:
                packet = Datagram(self.source, subscriber,
                                  size_bytes=self.packet_bytes,
                                  created_at=self.sim.now,
                                  flow_id=self.group,
                                  payload={"kind": "media",
                                           "group": self.group,
                                           "seq": self.packets_sent})
                self.packets_sent += 1
                inject(self.hosts, self.source, packet)

    def delivery_ratio(self) -> float:
        expected = self.packets_sent if self.mode == "unicast" else \
            self.packets_sent * len(self.subscribers)
        return self.deliveries / expected if expected else 0.0
