"""Run the serve daemon: ``python -m repro.serve [--port N] [...]``.

Binds, prints one ``listening on HOST:PORT`` line (flushed, so parents
spawning the daemon as a subprocess can scrape the bound ephemeral
port), then serves until SIGTERM/SIGINT or a ``shutdown`` request —
at which point it **drains**: stops accepting, finishes (or, past
``--drain-timeout``, cancels) in-flight work, prints one flushed
``drained {...stats...}`` line and exits 0.

``--chaos SPEC`` arms the deterministic service fault injector
(:mod:`repro.serve.chaos`): seeded slow/hung/crashing compute lanes,
on-disk cache corruption and dropped connections, for the chaos suite
and ``python -m repro.bench perf chaos``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from ..bench.runner import RunPolicy
from .chaos import build_chaos
from .daemon import DEFAULT_HOST, DEFAULT_PORT, ReproServer, ResilienceConfig
from .lru import DEFAULT_LRU_CAPACITY

_DEFAULT_RESILIENCE = ResilienceConfig()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running simulation service over the pool + caches.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port; 0 picks an ephemeral one (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk result-cache directory (default: no disk tier)",
    )
    parser.add_argument(
        "--lru-capacity", type=int, metavar="N", default=DEFAULT_LRU_CAPACITY,
        help=f"in-memory LRU entry bound (default: {DEFAULT_LRU_CAPACITY})",
    )
    parser.add_argument(
        "--workers", type=int, metavar="N", default=1,
        help="shard-pool width for the trace lane (default: 1, in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="S", default=None,
        help="per-experiment wall-clock budget (default: declared budgets)",
    )
    parser.add_argument(
        "--retries", type=int, metavar="N", default=1,
        help="extra attempts per failing computation (default: 1)",
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--max-heavy", type=int, metavar="N",
        default=_DEFAULT_RESILIENCE.max_heavy,
        help="concurrent experiment/trace computations before shedding "
             f"busy (default: {_DEFAULT_RESILIENCE.max_heavy})",
    )
    resilience.add_argument(
        "--max-fast", type=int, metavar="N",
        default=_DEFAULT_RESILIENCE.max_fast,
        help="concurrent analytic computations before shedding busy "
             f"(default: {_DEFAULT_RESILIENCE.max_fast})",
    )
    resilience.add_argument(
        "--client-window", type=int, metavar="N",
        default=_DEFAULT_RESILIENCE.client_window,
        help="requests one connection may have in processing at once "
             f"(default: {_DEFAULT_RESILIENCE.client_window})",
    )
    resilience.add_argument(
        "--client-heavy-quota", type=int, metavar="N",
        default=_DEFAULT_RESILIENCE.client_heavy_quota,
        help="heavy computations one connection may start concurrently "
             f"(default: {_DEFAULT_RESILIENCE.client_heavy_quota})",
    )
    resilience.add_argument(
        "--breaker-threshold", type=int, metavar="N",
        default=_DEFAULT_RESILIENCE.breaker_threshold,
        help="consecutive lane failures that trip its circuit breaker "
             f"(default: {_DEFAULT_RESILIENCE.breaker_threshold})",
    )
    resilience.add_argument(
        "--breaker-cooldown", type=float, metavar="S",
        default=_DEFAULT_RESILIENCE.breaker_cooldown_s,
        help="seconds an open breaker waits before half-opening "
             f"(default: {_DEFAULT_RESILIENCE.breaker_cooldown_s})",
    )
    resilience.add_argument(
        "--drain-timeout", type=float, metavar="S",
        default=_DEFAULT_RESILIENCE.drain_timeout_s,
        help="seconds a drain waits for in-flight work before cancelling "
             f"(default: {_DEFAULT_RESILIENCE.drain_timeout_s})",
    )
    chaos_group = parser.add_argument_group("chaos")
    chaos_group.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="service fault plan, e.g. "
             "'lane_error:rate=0.02;corrupt_disk:at=1,mode=bitflip' "
             "(see repro.serve.chaos)",
    )
    chaos_group.add_argument(
        "--chaos-seed", type=int, metavar="N", default=0,
        help="seed for the chaos injector's deterministic draws (default: 0)",
    )
    args = parser.parse_args(argv)
    if args.lru_capacity <= 0:
        parser.error("--lru-capacity must be positive")
    if args.workers <= 0:
        parser.error("--workers must be positive")
    try:
        config = ResilienceConfig(
            max_fast=args.max_fast,
            max_heavy=args.max_heavy,
            client_window=args.client_window,
            client_heavy_quota=args.client_heavy_quota,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            drain_timeout_s=args.drain_timeout,
        )
        chaos = build_chaos(args.chaos, seed=args.chaos_seed)
    except ValueError as exc:
        parser.error(str(exc))

    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        lru_capacity=args.lru_capacity,
        policy=RunPolicy(timeout_s=args.timeout, retries=max(0, args.retries)),
        workers=args.workers,
        resilience=config,
        chaos=chaos,
    )

    async def amain() -> None:
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:
                pass  # non-Unix event loop: shutdown op still drains
        if chaos is not None:
            print(f"chaos armed: {chaos.plan.describe()}", flush=True)
        print(f"listening on {host}:{port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(amain())
    except KeyboardInterrupt:
        pass
    # One flushed line so parents (the drain tests, the chaos harness) can
    # assert the exit was a drain, not a crash, and read final counters.
    print(f"drained {json.dumps(server.stats.to_dict(), sort_keys=True)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
