"""Outside-in span tracing for the benchmark's traced pass.

:func:`install` replaces a fixed set of public methods, one or more per
layer, with wrappers that record a span per call: layer, start, end
(``perf_counter_ns``), the enclosing span, and for shuttle calls the
packet id the spans of one journey share.  Spans stay in memory; the
workload's ``collect`` calls :func:`flush`, which writes them to one
JSON file per shard, so forked shard workers (which inherit the
wrappers) report their spans too.  :func:`summarize` turns the files of
one pass into per-layer call counts and self times, where self time is
a span's duration minus the time its child spans cover.

Nothing here touches the program's source: wrappers are installed on
the classes at run time and removed again by :func:`uninstall`.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class, method, where the packet is: index into the
#: call's positional args, counting self as 0; -1 = the return value;
#: None = no packet).
LAYERS: Tuple[Tuple[str, str, str, str, Optional[int]], ...] = (
    ("sim.run", "repro.substrates.sim.kernel", "Simulator", "run", None),
    ("ship.receive", "repro.core.ship", "Ship", "receive", 1),
    ("ship.dock", "repro.core.ship", "Ship", "process_shuttle", 1),
    ("ship.send_toward", "repro.core.ship", "Ship", "send_toward", 1),
    ("admission.vet", "repro.staticcheck.admission", "AdmissionVerifier",
     "vet", 1),
    ("phys.send", "repro.substrates.phys.fabric", "NetworkFabric", "send", 3),
    ("routing.next_hop", "repro.routing.static", "StaticRouter", "next_hop",
     None),
    ("shuttle.clone", "repro.core.shuttle", "Shuttle", "clone", -1),
    ("congruence.record", "repro.core.congruence", "CongruenceTracker",
     "record_processed", None),
    ("nodeos.exec", "repro.substrates.nodeos.nodeos", "NodeOS",
     "execute_capsule", None),
    ("nodeos.forward", "repro.substrates.nodeos.nodeos", "NodeOS",
     "forward_cost", None),
    ("knowledge.record", "repro.core.knowledge", "KnowledgeBase", "record",
     None),
)

#: Span tuple: (layer index, start ns, end ns, parent span index or -1,
#: packet id or -1).
Span = Tuple[int, int, int, int, int]

# The tracer installed in this process, if any.  Forked shard workers
# inherit it together with the wrapped classes, which is what lets a
# worker's collect() flush the worker's own spans; nothing in it is
# ever digested.
_ACTIVE: List["Tracer"] = []


class Tracer:
    """In-memory span store plus the originals of the wrapped methods."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.saved: List[Tuple[type, str, Any]] = []

    def wrap(self, layer: int, fn: Callable, packet_at: Optional[int]):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if packet_at is None:
                    ident = -1
                else:
                    carrier = result if packet_at < 0 else args[packet_at]
                    ident = getattr(carrier, "packet_id", -1)
                spans[index] = (layer, start, end, parent, ident)

        return traced


def install(out_dir: str) -> Tracer:
    """Wrap every :data:`LAYERS` method; returns the active tracer."""
    if _ACTIVE:
        raise RuntimeError("a tracer is already installed")
    tracer = Tracer(out_dir)
    for layer, (_, module, cls_name, method, packet_at) in enumerate(LAYERS):
        cls = getattr(importlib.import_module(module), cls_name)
        tracer.saved.append((cls, method, cls.__dict__.get(method)))
        setattr(cls, method,
                tracer.wrap(layer, getattr(cls, method), packet_at))
    _ACTIVE.append(tracer)
    return tracer


def uninstall() -> None:
    """Restore every wrapped method."""
    while _ACTIVE:
        tracer = _ACTIVE.pop()
        for cls, method, original in reversed(tracer.saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)


def restart() -> None:
    """Drop the spans recorded so far (set-up is not traced)."""
    for tracer in _ACTIVE:
        del tracer.spans[:]
        del tracer.stack[:]


def flush(label: str) -> None:
    """Write this process's spans to ``<out_dir>/<label>.spans.json``."""
    for tracer in _ACTIVE:
        os.makedirs(tracer.out_dir, exist_ok=True)
        path = os.path.join(tracer.out_dir, f"{label}.spans.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": [entry[0] for entry in LAYERS],
                       "spans": tracer.spans}, fh, sort_keys=True)
        del tracer.spans[:]


def span_files(out_dir: str) -> List[str]:
    if not os.path.isdir(out_dir):
        return []
    return [os.path.join(out_dir, name) for name in sorted(os.listdir(out_dir))
            if name.endswith(".spans.json")]


def summarize(paths: List[str]) -> Dict[str, Any]:
    """Per-layer ``calls`` and ``self_ns`` over the given span files, plus
    every ``ship.dock`` duration (for percentiles)."""
    calls = {entry[0]: 0 for entry in LAYERS}
    self_ns = dict.fromkeys(calls, 0)
    dock_ns: List[int] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        layers, spans = payload["layers"], payload["spans"]
        covered = [0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (layer, start, end, _, _) in enumerate(spans):
            name = layers[layer]
            calls[name] += 1
            self_ns[name] += end - start - covered[index]
            if name == "ship.dock":
                dock_ns.append(end - start)
    return {"calls": calls, "self_ns": self_ns, "dock_ns": dock_ns}
