"""Request streams of the three workloads, generated from the seed.

The lists below are fixed on purpose rather than read from the
program: a later change that adds an oracle kind or a machine must not
silently change what the benchmark sends.  Every stream is a pure
function of its seed, and the daemon sees only the generated requests.

Seed fields carried by the requests partition the key space, so no
stream can hit an entry another one wrote:

* set-up requests use seed 0;
* the traced run's layer probe uses :data:`PROBE_SEED`;
* workload streams use seeds in ``[1, PROBE_SEED)``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List

#: Every zoo machine, by canonical registry name.
MACHINES = (
    "power8",
    "power8-192way",
    "power7",
    "sparc-t3-4",
    "broadwell",
    "cascade-lake",
)

#: Every oracle request kind.
KINDS = (
    "lat_mem",
    "chase",
    "stream_table3",
    "stream_point",
    "stream_scaling",
    "stream_sweep",
    "prefetch_sweep",
    "dscr_model",
    "stride",
    "dcbt",
    "random_access",
    "roofline",
)

#: Working sets an analytic ``chase`` request draws from.  The chase
#: model is closed-form, so its cost does not depend on the size.
CHASE_SIZES = (16 << 10, 256 << 10, 4 << 20, 64 << 20, 1 << 30)

#: Hot-set variants per (machine, kind): 6 x 12 x 4 = 288 specs, well
#: under the daemon's 4096-entry LRU.
HOT_VARIANTS = 4

#: Trace working sets, one cycle: L1-resident (16-64 KiB), L2
#: (256-512 KiB) and L3 (1-2 MiB) classes interleaved.  The order is
#: fixed so every cycle does the same work whatever the seed.
TRACE_CYCLE = (
    16 << 10, 256 << 10, 1 << 20,
    32 << 10, 384 << 10, 3 << 19,
    64 << 10, 512 << 10, 2 << 20,
)

#: Seed of the traced run's layer probe (outside every stream's range).
PROBE_SEED = 1 << 40

SETUP_SEED = 0


def trace_class(working_set: int) -> str:
    """``l1``, ``l2`` or ``l3``: the cache level a chase working set fits."""
    if working_set <= 64 << 10:
        return "l1"
    if working_set <= 512 << 10:
        return "l2"
    return "l3"


def analytic_spec(machine: str, kind: str, seed: int, working_set: int = 0) -> Dict[str, Any]:
    request: Dict[str, Any] = {"kind": kind}
    if kind == "chase" and working_set:
        request["working_set"] = int(working_set)
    return {"kind": "analytic", "machine": machine, "seed": int(seed), "request": request}


def trace_spec(working_set: int, seed: int) -> Dict[str, Any]:
    return {"kind": "trace", "machine": "power8", "working_set": int(working_set), "seed": int(seed)}


def setup_specs() -> List[Dict[str, Any]]:
    """One analytic request per zoo machine: what set-up time waits for."""
    return [analytic_spec(m, "chase", SETUP_SEED, 16 << 20) for m in MACHINES]


def probe_specs() -> List[Dict[str, Any]]:
    """The traced run's layer probe: one miss per oracle kind and one
    trace per working-set class, so every layer has calls to time even
    on a workload that never reaches it."""
    analytic = [
        analytic_spec(MACHINES[i % len(MACHINES)], kind, PROBE_SEED, 4 << 20)
        for i, kind in enumerate(KINDS)
    ]
    traces = [trace_spec(ws, PROBE_SEED) for ws in (16 << 10, 256 << 10, 1 << 20)]
    return analytic + traces


def _stream_seed_base(seed: int) -> int:
    """Per-seed offset of the seed fields a stream hands out."""
    return 1 + (seed % 1000) * 10**9


def hot_set(seed: int) -> List[Dict[str, Any]]:
    """Every (machine, kind) pair, :data:`HOT_VARIANTS` times."""
    rng = random.Random(f"hot-set:{seed}")
    base = _stream_seed_base(seed)
    specs = []
    for _ in range(HOT_VARIANTS):
        for m in MACHINES:
            for kind in KINDS:
                specs.append(
                    analytic_spec(m, kind, base + len(specs), rng.choice(CHASE_SIZES))
                )
    return specs


def hot_stream(seed: int, hot: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """Uniform draws from the hot set."""
    rng = random.Random(f"hot-stream:{seed}")
    while True:
        yield hot[rng.randrange(len(hot))]


def miss_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """Specs never sent before in the run: a fresh seed field each, the
    12 kinds rotating over the 6 machines (all 72 pairs every 72
    requests)."""
    rng = random.Random(f"miss-stream:{seed}")
    base = _stream_seed_base(seed)
    i = 0
    while True:
        kind = KINDS[i % len(KINDS)]
        machine = MACHINES[(i // len(KINDS)) % len(MACHINES)]
        yield analytic_spec(machine, kind, base + i, rng.choice(CHASE_SIZES))
        i += 1


def trace_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """Pointer chases on ``power8`` cycling :data:`TRACE_CYCLE`, each
    with a fresh chase seed."""
    base = _stream_seed_base(seed)
    i = 0
    while True:
        yield trace_spec(TRACE_CYCLE[i % len(TRACE_CYCLE)], base + i)
        i += 1


def stream(workload: str, seed: int) -> Iterator[Dict[str, Any]]:
    if workload == "hot-hits":
        return hot_stream(seed, hot_set(seed))
    if workload == "oracle-miss":
        return miss_stream(seed)
    if workload == "trace-chase":
        return trace_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("hot-hits", "oracle-miss", "trace-chase")
