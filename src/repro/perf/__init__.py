"""repro.perf: the deterministic throughput harness.

:mod:`repro.perf.harness` / :mod:`repro.perf.scenarios` form the
``repro bench`` macro-benchmark suite: seeded scenarios whose *digests*
are pure functions of (seed, scale) and whose throughput numbers anchor
the ``BENCH_*.json`` trajectory.  Everything is loaded lazily via
``__getattr__``, so importing this package stays cheap and cannot
create a cycle (harness -> core -> kernel).
"""

from __future__ import annotations

__all__ = [
    "BenchResult", "SCENARIOS", "SHARD_WORKLOADS", "run_scenario",
    "run_all", "compare", "write_results", "load_results",
    "run_digest", "canonical_digest",
]

_LAZY = {
    "BenchResult": "harness", "run_scenario": "harness",
    "run_all": "harness", "compare": "harness",
    "write_results": "harness", "load_results": "harness",
    "SCENARIOS": "scenarios", "SHARD_WORKLOADS": "scenarios",
    "run_digest": "digest", "canonical_digest": "digest",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
