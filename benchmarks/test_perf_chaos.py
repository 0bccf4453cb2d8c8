"""Bench: availability and integrity of the daemon under injected chaos.

The acceptance bar for the resilience layer (``repro.serve.chaos`` plus
the daemon's admission/breaker/drain machinery) is availability >= 99%
under the mixed-fault plan with **zero** invariant violations — every
response is either a structured error row or a payload bit-identical to
the direct run, never a corrupt result.  The deterministic probes must
each demonstrate their mechanism: a corrupt disk entry quarantined and
healed bit-identically, the overloaded heavy pool shedding with pacing
hints, and SIGTERM draining to exit code 0.  The measured run is
written to ``BENCH_chaos.json`` at the repo root — the same artifact
``python -m repro.bench perf chaos`` produces.
"""

from pathlib import Path

from repro.bench.perf import write_bench
from repro.serve.loadgen import run_chaos_bench

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"

#: The gated availability floor under the mixed-fault plan.
MIN_AVAILABILITY = 0.99


def test_chaos_availability_and_invariants(benchmark):
    result = benchmark.pedantic(
        run_chaos_bench,
        rounds=1,
        iterations=1,
    )
    write_bench(str(BENCH_JSON), result=result)
    mixed = result["mixed_fault"]
    # The invariant: never a corrupt or misattributed payload — every
    # non-ok response carried a structured error row.
    assert mixed["violations"] == 0, f"{mixed['violations']} invariant violations"
    assert mixed["availability"] >= MIN_AVAILABILITY, (
        f"availability {mixed['availability']:.4f} under mixed faults "
        f"is below the {MIN_AVAILABILITY:.0%} floor"
    )
    # Chaos actually fired — an idle plan would gate nothing.
    assert mixed["server_chaos_counts"], "no server-side faults were injected"
    # Self-healing: the corrupted entry was quarantined and the payload
    # recomputed bit-identically.
    quarantine = result["quarantine"]
    assert quarantine["payload_identical"], "healed payload differs from original"
    assert quarantine["quarantined"] >= 1
    assert quarantine["healed_source"] == "computed"
    # Backpressure: the overloaded heavy pool shed rather than queueing
    # without bound, and still served everything it admitted.
    overload = result["overload"]
    assert overload["total_shed"] >= 1
    assert overload["ok"] >= 1
    # Graceful drain: SIGTERM ended the daemon cleanly with the banner.
    drain = result["drain"]
    assert drain["exit_code"] == 0
    assert drain["drained_line_present"]
