"""``repro.bench`` — performance benchmarks with checked-in reports.

The umbrella behind the ``repro bench`` CLI: each submodule owns one
benchmark family and emits a schema-versioned JSON report that lives in
``benchmarks/results/`` as a perf-trajectory record:

* :mod:`repro.bench.packet` — SoA packet engine vs the pinned scalar
  reference over the fig09 packet sweep (``BENCH_packet.json``);
* :mod:`repro.serve.bench` — batched route-query throughput vs a scalar
  lookup loop (``BENCH_serve.json``; predates this package, stays in the
  serve subsystem and runs as ``repro serve bench``).
"""

from repro.bench.packet import (
    BENCH_SCHEMA as PACKET_BENCH_SCHEMA,
)
from repro.bench.packet import (
    FIG09_LOADS,
    FIG09_NAMES,
    format_bench,
    quick_preset,
    run_bench,
)

__all__ = [
    "PACKET_BENCH_SCHEMA",
    "FIG09_NAMES",
    "FIG09_LOADS",
    "quick_preset",
    "run_bench",
    "format_bench",
]
