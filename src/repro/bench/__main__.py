"""Command-line runner: ``python -m repro.bench [experiment ...]``.

Without arguments, runs every registered experiment on the E870 and
prints each reproduced table/figure.  Pass experiment ids (``table3``,
``fig4``, ...) to run a subset; ``--list`` shows the available ids.
Experiments run **fail-soft**: each gets a wall-clock budget and a
retry with backoff (tune with ``--timeout``/``--retries``), and a
persistently failing experiment prints a structured error row while
the rest of the suite continues (``--fail-fast`` restores the old
abort-on-first-error behaviour; the exit code reports failures either
way).  ``--trace-perf`` instead times the batched trace engine against
the per-access reference simulator and writes the result JSON;
``--stream-fastpath-perf`` times the steady-state bulk regime paths
(streaming, write, prefetcher-on) against the scalar-chunk baseline
and writes ``BENCH_stream_fastpath.json``.

RAS options: ``--ras-sweep`` prints bandwidth/latency degradation vs
injected fault rate, ``--ras-selftest`` checks the fault-injection
invariants (engine bit-identity, counter conservation, monotone
degradation, zero-rate bit-exactness), and ``--inject SPEC`` applies a
fault plan to the sweep (see :mod:`repro.ras.injector` for the spec
grammar).

Machine zoo (``repro.arch.registry``): ``--machine NAME`` runs any
experiment on a registered zoo machine instead of the E870
(``--list-machines`` enumerates them); ``--compare NAME...`` prints a
side-by-side characterization — latency plateaus, STREAM mixes,
prefetch, roofline, energy balance — one column per machine;
``--compare-perf`` writes it to ``BENCH_compare.json`` for trajectory
gating; ``--zoo-selftest`` runs the fast zoo gate (per-machine
invariants, differential conformance, pinned golden headline tables
vs published anchors).

Sharded execution (``repro.parallel``): ``--workers N`` fans the
selected experiments over a process pool (same results, same order);
``--shards N`` sets the shard count for sharded modes;
``--parallel-perf`` times the sharded trace engine against the serial
one and writes ``BENCH_parallel.json``; ``--serve-perf`` spawns a
``repro.serve`` daemon and replays mixed cache-hit/miss request streams
against it, writing p50/p99 latency, RPS, dedup ratio and LRU hit rate
to ``BENCH_serve.json`` (conformance-gated: the served payloads must be
bit-identical to direct in-process runs).  Results cache on disk when
``--cache-dir`` (or ``$REPRO_CACHE_DIR``) is configured — a second run
prints ``[cache hit <id>]`` and renders the stored rows, bit-identical
to a re-run; ``--no-cache`` bypasses the cache.
"""

from __future__ import annotations

import argparse
import os
import sys

from .runner import ExperimentResult, RunPolicy, experiment_ids


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures on the modelled E870.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list available experiment ids")
    zoo = parser.add_argument_group("machine zoo")
    zoo.add_argument(
        "--machine", metavar="NAME", default=None,
        help="run experiments on a zoo machine instead of the E870 "
             "(power8, sparc-t3-4, broadwell, cascade-lake, ...)",
    )
    zoo.add_argument(
        "--compare", nargs="+", metavar="NAME", default=None,
        help="print the side-by-side characterization of the named zoo "
             "machines (latency / STREAM / prefetch / roofline / energy)",
    )
    zoo.add_argument(
        "--compare-perf", action="store_true",
        help="write the zoo comparison to BENCH_compare.json (all machines "
             "unless --compare names a subset) for trajectory gating",
    )
    zoo.add_argument(
        "--list-machines", action="store_true",
        help="list the registered zoo machines and exit",
    )
    zoo.add_argument(
        "--zoo-selftest", action="store_true",
        help="run the fast zoo gate: per-machine invariants, analytic "
             "figure conformance and the pinned golden headline tables",
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="also write each experiment's rows to DIR/<id>.csv"
    )
    parser.add_argument(
        "--trace-perf", action="store_true",
        help="run the trace-engine throughput micro-benchmark instead of experiments",
    )
    parser.add_argument(
        "--stream-fastpath-perf", action="store_true",
        help="time the steady-state bulk regime paths (streaming, write, "
             "prefetcher-on) against the scalar-chunk baseline and write "
             "BENCH_stream_fastpath.json",
    )
    analytic = parser.add_argument_group("analytic oracle")
    analytic.add_argument(
        "--analytic", nargs="*", metavar="KIND", default=None,
        help="print the oracle's O(1) predictions instead of running "
             "experiments; pass request kinds (chase, stream_table3, "
             "prefetch_sweep, ...) or nothing for every kind",
    )
    analytic.add_argument(
        "--analytic-perf", action="store_true",
        help="time the analytic oracle against the trace engine on the "
             "lat_mem/STREAM/prefetch prediction lanes and write "
             "BENCH_analytic.json",
    )
    analytic.add_argument(
        "--analytic-selftest", action="store_true",
        help="run the oracle-vs-trace differential suite against the golden "
             "per-figure tolerances and exit non-zero on any violation",
    )
    parser.add_argument(
        "--out", metavar="FILE", default="BENCH_trace.json",
        help="output JSON for --trace-perf (default: BENCH_trace.json)",
    )
    parser.add_argument(
        "--counters", action="store_true",
        help="print the PMU counter report for the headline pointer-chase "
             "trace (standalone or after --trace-perf)",
    )
    parser.add_argument(
        "--counters-selftest", action="store_true",
        help="run the PMU self-test (conservation + engine agreement + "
             "prefetch cross-check) and exit non-zero on any violation",
    )
    ras = parser.add_argument_group("RAS / fault injection")
    ras.add_argument(
        "--ras-sweep", action="store_true",
        help="print the degradation curve (bandwidth, latency, RAS counters) "
             "vs injected fault rate and exit",
    )
    ras.add_argument(
        "--ras-selftest", action="store_true",
        help="run the RAS self-test (scalar/batch fault bit-identity, counter "
             "conservation, monotone degradation, zero-rate bit-exactness)",
    )
    ras.add_argument(
        "--inject", metavar="SPEC", default=None,
        help="fault plan for --ras-sweep, e.g. "
             "'dram_bit:rate=0;link_crc:rate=0;ecc:secded' (rates are swept)",
    )
    ras.add_argument(
        "--seed", type=int, default=0, help="fault-injection seed (default: 0)"
    )
    par = parser.add_argument_group("sharded execution / result cache")
    par.add_argument(
        "--workers", type=int, metavar="N", default=1,
        help="process-pool size for experiment execution and --parallel-perf "
             "(default: 1 = in-process serial oracle)",
    )
    par.add_argument(
        "--shards", type=int, metavar="N", default=8,
        help="shard count for --parallel-perf (default: 8)",
    )
    par.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache even when it is configured",
    )
    par.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR when set; "
             "caching is off when neither is given)",
    )
    par.add_argument(
        "--parallel-perf", action="store_true",
        help="run the sharded-execution micro-benchmark (serial engine vs "
             "sharded plan vs multiprocess pool) and write BENCH_parallel.json",
    )
    serve = parser.add_argument_group("serve daemon")
    serve.add_argument(
        "--serve-perf", action="store_true",
        help="spawn a serve daemon, replay mixed hit/miss request streams "
             "against it (conformance-gated) and write BENCH_serve.json",
    )
    serve.add_argument(
        "--serve-requests", type=int, metavar="N", default=None,
        help="mixed-phase request count for --serve-perf (default: "
             "the full load; use ~20000 for a CI smoke)",
    )
    serve.add_argument(
        "--chaos-perf", action="store_true",
        help="spawn chaos-armed serve daemons, replay a seeded mixed-fault "
             "stream (crashing/slow lanes, disk corruption, dropped "
             "connections, malformed lines) and write availability/"
             "p99-under-fault to BENCH_chaos.json",
    )
    serve.add_argument(
        "--chaos-requests", type=int, metavar="N", default=None,
        help="mixed-fault replay request count for --chaos-perf (default: "
             "4000; use ~1000 for a CI smoke)",
    )
    failsoft = parser.add_argument_group("fail-soft execution")
    failsoft.add_argument(
        "--timeout", type=float, metavar="S", default=None,
        help="per-experiment wall-clock budget in seconds "
             "(default: each experiment's declared budget)",
    )
    failsoft.add_argument(
        "--retries", type=int, metavar="N", default=1,
        help="extra attempts per failing experiment (default: 1)",
    )
    failsoft.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first failing experiment instead of continuing",
    )
    args = parser.parse_args(argv)

    # Lazy imports throughout: each mode pulls in only what it needs.
    if args.list_machines:
        from ..arch.registry import available_machines

        for name in available_machines():
            print(name)
        return 0

    if args.zoo_selftest:
        from .compare import zoo_selftest

        ok, lines = zoo_selftest(args.compare)
        print("\n".join(lines))
        print("Zoo selftest " + ("PASSED" if ok else "FAILED"))
        return 0 if ok else 1

    if args.compare is not None or args.compare_perf:
        from .compare import compare_reports, format_compare, write_compare_bench

        try:
            if args.compare is not None:
                print(format_compare(compare_reports(args.compare)))
            if args.compare_perf:
                out = (
                    args.out if args.out != "BENCH_trace.json"
                    else "BENCH_compare.json"
                )
                payload = write_compare_bench(out, args.compare)
                print(f"[wrote {out}: {len(payload['machines'])} machines]")
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
        return 0

    system = None
    if args.machine is not None:
        from ..arch.registry import get_system

        try:
            system = get_system(args.machine)
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
        # Experiment titles are written against the paper's E870; make
        # the substituted machine explicit in the transcript.
        print(f"[machine: {system.name}]")

    if args.analytic_selftest:
        from ..arch.registry import canonical_name
        from ..perfmodel.differential import selftest

        machine = canonical_name(args.machine) if args.machine else None
        ok, lines = selftest(system, machine=machine)
        print("\n".join(lines))
        print("Analytic selftest " + ("PASSED" if ok else "FAILED"))
        return 0 if ok else 1

    if args.analytic_perf:
        from .analytic_perf import write_analytic_bench

        out = args.out if args.out != "BENCH_trace.json" else "BENCH_analytic.json"
        result = write_analytic_bench(out)
        for name, lane in result["lanes"].items():
            print(
                f"{name:>9}: trace {lane['trace_s']:7.3f} s"
                f"  oracle {1e6 * lane['oracle_s']:8.2f} us"
                f"  speedup {lane['speedup']:10.0f}x"
                f"  max_rel_err {lane['max_rel_err']:.3e}"
                f"  {'ok' if lane['within_tolerance'] else 'OUT OF TOLERANCE'}"
            )
        print(f"min speedup {result['min_speedup']:.0f}x, "
              f"max rel err {result['max_rel_err']:.3e}")
        print(f"[wrote {out}]")
        return 0 if result["all_within_tolerance"] else 1

    if args.analytic is not None:
        from ..arch import e870
        from ..perfmodel.oracle import REQUEST_KINDS, AnalyticOracle, OracleRequest

        kinds = args.analytic or sorted(REQUEST_KINDS)
        unknown_kinds = [k for k in kinds if k not in REQUEST_KINDS]
        if unknown_kinds:
            parser.error(
                f"unknown oracle kind(s): {unknown_kinds}; "
                f"known: {sorted(REQUEST_KINDS)}"
            )
        oracle = AnalyticOracle(system if system is not None else e870())
        for kind in kinds:
            print(oracle.predict(OracleRequest(kind=kind)).render())
            print()
        return 0

    if args.ras_selftest:
        from ..ras.sweep import ras_selftest

        ok, lines = ras_selftest(seed=args.seed)
        print("\n".join(lines))
        print("RAS selftest " + ("PASSED" if ok else "FAILED"))
        return 0 if ok else 1

    if args.ras_sweep:
        from ..ras.sweep import DEFAULT_SWEEP_SPEC, format_sweep, ras_sweep

        spec = args.inject if args.inject is not None else DEFAULT_SWEEP_SPEC
        points = ras_sweep(spec=spec, seed=args.seed)
        print(format_sweep(points))
        print(f"[plan: {spec!r}, seed {args.seed}; rates sweep every rate-clause]")
        return 0

    if args.counters_selftest:
        from ..pmu.selftest import run_selftest

        ok, lines = run_selftest()
        print("\n".join(lines))
        print("PMU selftest " + ("PASSED" if ok else "FAILED"))
        return 0 if ok else 1

    if args.parallel_perf:
        from .parallel_perf import write_parallel_bench

        out = args.out if args.out != "BENCH_trace.json" else "BENCH_parallel.json"
        result = write_parallel_bench(
            out, shards=args.shards, workers=args.workers, seed=args.seed
        )
        print(f"serial engine:  {result['serial_s']:8.2f} s")
        print(f"sharded plan:   {result['plan_serial_s']:8.2f} s (workers=1)")
        print(f"sharded pool:   {result['parallel_s']:8.2f} s (workers={result['workers']})")
        print(f"speedup:        {result['speedup']:8.2f}x (vs serial engine)")
        print(f"bit-identical:  {result['bit_identical']}")
        print(f"[wrote {out}]")
        return 0 if result["bit_identical"] else 1

    if args.serve_perf:
        from .serve_perf import format_serve_summary, write_serve_bench

        out = args.out if args.out != "BENCH_trace.json" else "BENCH_serve.json"
        kwargs = {}
        if args.serve_requests is not None:
            if args.serve_requests <= 0:
                parser.error("--serve-requests must be positive")
            kwargs["mixed_requests"] = args.serve_requests
            kwargs["hot_requests"] = max(2000, args.serve_requests // 2)
        result = write_serve_bench(out, **kwargs)
        print(format_serve_summary(result))
        print(f"[wrote {out}]")
        return 0 if result["bit_identical"] else 1

    if args.chaos_perf:
        from .chaos_perf import format_chaos_summary, write_chaos_bench

        out = args.out if args.out != "BENCH_trace.json" else "BENCH_chaos.json"
        kwargs = {}
        if args.chaos_requests is not None:
            if args.chaos_requests <= 0:
                parser.error("--chaos-requests must be positive")
            kwargs["requests"] = args.chaos_requests
        result = write_chaos_bench(out, **kwargs)
        print(format_chaos_summary(result))
        print(f"[wrote {out}]")
        ok = (
            result["mixed_fault"]["violations"] == 0
            and result["quarantine"]["payload_identical"]
            and result["drain"]["exit_code"] == 0
        )
        return 0 if ok else 1

    if args.stream_fastpath_perf:
        from .stream_fastpath_perf import write_stream_fastpath_bench

        out = (
            args.out if args.out != "BENCH_trace.json"
            else "BENCH_stream_fastpath.json"
        )
        result = write_stream_fastpath_bench(out)
        for name, lane in result["lanes"].items():
            print(
                f"{name:>14}: scalar {lane['scalar_ns_per_access']:8.1f} ns/access"
                f"  fast {lane['fast_ns_per_access']:8.1f} ns/access"
                f"  speedup {lane['speedup']:6.2f}x"
            )
        print(f"[wrote {out}]")
        return 0

    if args.trace_perf:
        from .trace_perf import write_trace_bench

        result = write_trace_bench(args.out)
        print(f"reference: {result['reference_ns_per_access']:8.1f} ns/access")
        print(f"batch:     {result['batch_ns_per_access']:8.1f} ns/access")
        print(f"speedup:   {result['speedup']:8.1f}x")
        print(f"[wrote {args.out}]")
        if args.counters:
            from .trace_perf import trace_bench_counter_report

            print()
            print(trace_bench_counter_report())
        return 0

    if args.counters:
        from .trace_perf import trace_bench_counter_report

        print(trace_bench_counter_report())
        return 0

    if args.list:
        for eid in experiment_ids():
            print(eid)
        return 0

    targets = args.experiments or experiment_ids()
    unknown = [t for t in targets if t not in experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; use --list")
    policy = RunPolicy(
        timeout_s=args.timeout,
        retries=max(0, args.retries),
        fail_soft=not args.fail_fast,
    )

    # Cache is active only when a directory is configured (flag or env):
    # experiments are deterministic given (machine, code version), so a
    # hit is a bit-for-bit stand-in for a re-run.
    cache = keys = None
    if not args.no_cache and (args.cache_dir or os.environ.get("REPRO_CACHE_DIR")):
        from ..arch import e870
        from ..parallel.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        machine = system if system is not None else e870()
        keys = {
            eid: cache.key(machine=machine, workload={"experiment": eid}, seed=0)
            for eid in targets
        }

    results = {}
    if cache is not None:
        for eid in targets:
            payload = cache.get(keys[eid])
            if payload is not None:
                results[eid] = ExperimentResult.from_dict(payload)
    misses = [eid for eid in targets if eid not in results]
    if misses:
        from .runner import run_suite

        for result in run_suite(
            misses, system=system, policy=policy, workers=args.workers
        ):
            results[result.experiment_id] = result
            if cache is not None and result.ok:
                cache.put(keys[result.experiment_id], result.to_dict())

    failures = 0
    for eid in targets:
        result = results[eid]
        if cache is not None and eid not in misses:
            print(f"[cache hit {eid}]")
        print(result.render())
        if not result.ok:
            failures += 1
        elif args.csv:
            from ..reporting.figures import write_csv

            path = write_csv(args.csv, result.experiment_id, result.headers, result.rows)
            print(f"[wrote {path}]")
        print()
    if failures:
        print(f"{failures}/{len(targets)} experiment(s) failed (fail-soft)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
