"""Multimedia and sensor traffic generators.

The paper's motivating traffic: "most of the network traffic carries
large amounts of rich multimedia content" (Section D) and sensor fusion
("merging data within the network reduces the bandwidth requirements of
the users ... reduce the load on the sensors and the network
backbone").
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from ..substrates.phys import Datagram
from ..substrates.sim import Simulator
from .adapter import inject

NodeId = Hashable


class MediaStreamSource:
    """A constant-bit-rate media stream from ``src`` to ``dst``."""

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 src: NodeId, dst: NodeId,
                 rate_pps: float = 10.0, packet_bytes: int = 1200,
                 encoding: str = "raw",
                 quality_spread: float = 0.0,
                 group: Optional[Hashable] = None,
                 stream_id: Optional[str] = None):
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.sim = sim
        self.hosts = hosts
        self.src = src
        self.dst = dst
        self.rate_pps = float(rate_pps)
        self.packet_bytes = int(packet_bytes)
        self.encoding = encoding
        self.quality_spread = float(quality_spread)
        self.group = group
        self.stream_id = stream_id or f"stream-{sim.next_id('stream')}"
        self.sent = 0
        self._task = None

    def start(self) -> None:
        if self._task is None:
            self._task = self.sim.every(1.0 / self.rate_pps, self._emit,
                                        jitter=0.1 / self.rate_pps,
                                        stream=f"media.{self.stream_id}")

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _emit(self) -> None:
        quality = 1.0
        if self.quality_spread > 0:
            rng = self.sim.rng.stream(f"media.q.{self.stream_id}")
            quality = max(0.0, min(1.0, 1.0 - rng.random()
                                   * self.quality_spread))
        payload = {"kind": "media", "stream": self.stream_id,
                   "seq": self.sent, "encoding": self.encoding,
                   "quality": quality}
        if self.group is not None:
            payload["group"] = self.group
        packet = Datagram(self.src, self.dst,
                          size_bytes=self.packet_bytes,
                          created_at=self.sim.now,
                          flow_id=self.stream_id, payload=payload)
        self.sent += 1
        inject(self.hosts, self.src, packet)


class SensorField:
    """N sensors reporting small readings to one sink via a hub.

    All readings share one flow id so an in-network fusion point can
    aggregate them (the paper's fusion-server example).
    """

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 sensors: List[NodeId], sink: NodeId,
                 interval: float = 1.0, reading_bytes: int = 64,
                 field_id: Optional[str] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.hosts = hosts
        self.sensors = list(sensors)
        self.sink = sink
        self.interval = float(interval)
        self.reading_bytes = int(reading_bytes)
        self.field_id = field_id or f"field-{sim.next_id('field')}"
        self.readings_sent = 0
        self._tasks: List = []

    def start(self) -> None:
        if self._tasks:
            return
        for i, sensor in enumerate(self.sensors):
            task = self.sim.every(
                self.interval, self._emit, sensor,
                start=self.interval * (1 + i / max(len(self.sensors), 1)),
                jitter=self.interval * 0.05,
                stream=f"sensor.{self.field_id}.{i}")
            self._tasks.append(task)

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks = []

    def _emit(self, sensor: NodeId) -> None:
        rng = self.sim.rng.stream(f"sensor.v.{self.field_id}")
        packet = Datagram(sensor, self.sink,
                          size_bytes=self.reading_bytes,
                          created_at=self.sim.now,
                          flow_id=self.field_id,
                          payload={"kind": "sensor", "sensor": sensor,
                                   "reading": round(rng.gauss(20.0, 3.0), 2)})
        self.readings_sent += 1
        inject(self.hosts, sensor, packet)


class OnOffSource:
    """Bursty traffic: exponential ON periods at ``rate_pps``, then OFF.

    The classic model for congestion studies — the feedback controllers
    (MFP) are exercised by exactly this kind of load.
    """

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 src: NodeId, dst: NodeId,
                 rate_pps: float = 20.0, packet_bytes: int = 800,
                 mean_on: float = 5.0, mean_off: float = 5.0,
                 stream_id: Optional[str] = None):
        if rate_pps <= 0 or mean_on <= 0 or mean_off <= 0:
            raise ValueError("rates and periods must be positive")
        self.sim = sim
        self.hosts = hosts
        self.src = src
        self.dst = dst
        self.rate_pps = float(rate_pps)
        self.packet_bytes = int(packet_bytes)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.stream_id = stream_id or f"onoff-{sim.next_id('onoff')}"
        self.sent = 0
        self.bursts = 0
        self._on = False
        self._emit_task = None
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._enter_off()

    def stop(self) -> None:
        self._running = False
        if self._emit_task is not None:
            self._emit_task.stop()
            self._emit_task = None

    def _rng(self):
        return self.sim.rng.stream(f"onoff.{self.stream_id}")

    def _enter_on(self) -> None:
        if not self._running:
            return
        self._on = True
        self.bursts += 1
        self._emit_task = self.sim.every(
            1.0 / self.rate_pps, self._emit,
            stream=f"onoff.emit.{self.stream_id}")
        self.sim.call_in(self._rng().expovariate(1.0 / self.mean_on),
                         self._enter_off, name="onoff")

    def _enter_off(self) -> None:
        if self._emit_task is not None:
            self._emit_task.stop()
            self._emit_task = None
        self._on = False
        if not self._running:
            return
        self.sim.call_in(self._rng().expovariate(1.0 / self.mean_off),
                         self._enter_on, name="onoff")

    def _emit(self) -> None:
        packet = Datagram(self.src, self.dst,
                          size_bytes=self.packet_bytes,
                          created_at=self.sim.now,
                          flow_id=self.stream_id,
                          payload={"kind": "media",
                                   "stream": self.stream_id,
                                   "seq": self.sent, "burst": self.bursts})
        self.sent += 1
        inject(self.hosts, self.src, packet)
