"""The repository benchmark: the ``repro.serve`` daemon, end to end.

Usage (from the repository root)::

    python3 servebench/run.py --workload hot-hits --seed 1 --seconds 45 --trace 0

One run spawns ``python -m repro.serve --port 0`` at default flags and
drives it from this single-threaded process over one TCP connection in
a closed loop, alternating two kinds of timed block:

* saturated blocks: ``WINDOW`` requests pipelined, one throughput
  sample per block of ``R`` replies;
* one-in-flight blocks: one latency sample per request, and the block's
  median latency.

``trace-chase`` keeps one request in flight throughout, because heavy
requests share one GIL-bound lane: each block is one cycle of the nine
working sets and yields both a throughput and nine latency samples.  It
runs by hand but is not in ``BENCHMARK.json``: its runs spread wider
than the gate's bound on a shared host (NOTES.md).

The shared host's speed swings by half within seconds, so the gated
timings are read from the fastest tenth of the blocks (:data:`FAST_PCT`):
``tput_rps`` is the block rate that a tenth of the blocks reach and
``lat_p50_ms`` the block median that a tenth of the blocks beat.  The
whole-run medians are printed beside them, ungated.

Set-up time is the median over several daemon spawns spread through the
run.  After every block the replies are checked: ids in order, a
deterministic sample compared byte for byte with direct in-process
results, and ``stats`` op deltas proving the traffic did what the
workload claims.  A failed check prints ``"correct": false`` and no
numbers; error replies (sheds, lane failures) count against
``ok_frac``.

``--trace 1`` drives a plain daemon and a traced one
(``launcher.py``) side by side with the same traffic and prints the
per-layer metrics.  The last stdout line is always one JSON object.
See ``NOTES.md`` for why the metrics and workloads are what they are.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from client import (  # noqa: E402
    ALLOWED_CPUS,
    BENCH_CPUS,
    SRC,
    Daemon,
    encode,
    parse_replies,
)
from helpers import (  # noqa: E402
    fast_percentile,
    highest_supported_tail,
    percentile,
    windowed_throughput,
)
import workloads  # noqa: E402

#: Requests in flight on a saturated block; inside the daemon's
#: ``client_window`` of 32, so admission never sheds.
WINDOW = 16

#: Per workload: replies per saturated block (one throughput window),
#: requests per one-in-flight block, and every how many stream requests
#: one reply is compared with a direct in-process result.  Blocks last
#: 0.1-0.3 s, shorter than the host's fast and slow spells.
BLOCKS = {
    "hot-hits": {"replies": 600, "latency": 400, "sample_every": 16},
    "oracle-miss": {"replies": 300, "latency": 200, "sample_every": 16},
    "trace-chase": {"replies": len(workloads.TRACE_CYCLE), "latency": 0, "sample_every": 20},
}

#: Daemon spawns timed for ``setup_s`` (the first is the measured daemon).
SETUP_SPAWNS = 7

#: The gated timings come from the best ``FAST_PCT`` percent of blocks:
#: the spells when neighbours on the host leave the CPU alone.  A whole-run
#: median mixes fast and slow spells in proportions that change from run
#: to run (see NOTES.md).
FAST_PCT = 10

END_TO_END = (
    ("setup_s", "s"),
    ("tput_rps", "req/s"),
    ("lat_p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("rss_mb", "MiB"),
)


class CheckFailed(RuntimeError):
    """The program's output or the traffic's effect was not as claimed."""


def host_probe_ms() -> float:
    """A fixed pure-Python loop: shows host drift, divides no metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def _canon_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class Direct:
    """Direct in-process results, the reference the served bytes must equal."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from repro.arch.registry import get_system
        from repro.parallel.runner import sharded_traced_latency
        from repro.perfmodel.oracle import AnalyticOracle, OracleRequest
        from repro.serve.protocol import TRACE_PAGE_SIZE, TRACE_PASSES, canonical, trace_payload

        self._get_system = get_system
        self._oracle_cls = AnalyticOracle
        self._request_cls = OracleRequest
        self._trace = sharded_traced_latency
        self._trace_payload = trace_payload
        self._canonical = canonical
        self._trace_defaults = (TRACE_PAGE_SIZE, TRACE_PASSES)
        self._oracles: Dict[str, Any] = {}
        self._memo: Dict[bytes, bytes] = {}

    def expected(self, spec: Dict[str, Any]) -> bytes:
        key = _canon_bytes(spec)
        if key not in self._memo:
            self._memo[key] = _canon_bytes(self._compute(spec))
        return self._memo[key]

    def _compute(self, spec: Dict[str, Any]) -> Any:
        machine = spec["machine"]
        if spec["kind"] == "analytic":
            if machine not in self._oracles:
                self._oracles[machine] = self._oracle_cls(self._get_system(machine))
            request = self._request_cls.from_dict(dict(spec["request"]))
            return self._canonical(self._oracles[machine].predict(request).to_dict())
        page_size, passes = self._trace_defaults
        _, result = self._trace(
            self._get_system(machine), spec["working_set"], page_size=page_size,
            passes=passes, seed=spec["seed"], shards=1, workers=1, inject=None,
        )
        return self._trace_payload(result)


class Driven:
    """One daemon, its request stream and everything measured on it."""

    def __init__(self, daemon: Daemon, stream: Iterator[Dict[str, Any]]) -> None:
        self.daemon = daemon
        self.stream = stream
        self.index = 0  # position in the stream
        self.sent = 0
        self.ok = 0
        self.lat_ms: List[float] = []
        self.lat_blocks: List[float] = []  # median latency of each block
        self.rates: List[float] = []
        self.cpu_s = 0.0
        self.client_cpu_s = 0.0
        self.timed_s = 0.0
        self.timed_ids: List[int] = []
        self.trace_sizes: Dict[Any, int] = {}
        self.stats_first: Optional[Dict[str, Any]] = None
        self.stats_last: Optional[Dict[str, Any]] = None


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.params = BLOCKS[workload]
        self.ids = itertools.count()
        self.direct = Direct()
        self.setup_frames = [
            encode(spec, f"setup-{i}") for i, spec in enumerate(workloads.setup_specs())
        ]
        self.sent = 0
        self.setup_s: List[float] = []
        self.probes: List[float] = []
        self.daemons: List[Daemon] = []

    # -- daemons ---------------------------------------------------------
    def spawn(self, traced: bool = False) -> Daemon:
        daemon = Daemon(self.setup_frames, traced=traced)
        self.daemons.append(daemon)
        for spec, reply in zip(workloads.setup_specs(), daemon.setup_replies):
            self._check_payload(spec, reply)
        return daemon

    def setup_spawn(self) -> None:
        """One extra spawn, timed and stopped (the measured daemon idles)."""
        daemon = self.spawn()
        self.setup_s.append(daemon.setup_s)
        daemon.stop()
        self.daemons.remove(daemon)

    def stop_all(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    def kill_all(self) -> None:
        for daemon in self.daemons:
            daemon.kill()

    # -- checks ----------------------------------------------------------
    def _check_payload(self, spec: Dict[str, Any], reply: Dict[str, Any]) -> None:
        if not reply.get("ok"):
            raise CheckFailed(f"request {reply.get('id')} failed: {reply}")
        if _canon_bytes(reply["payload"]) != self.direct.expected(spec):
            raise CheckFailed(
                f"request {reply.get('id')} payload differs from the direct result"
            )

    def _check_block(self, before: Dict, after: Dict, ok: int) -> None:
        """Refuse a block whose ``stats`` deltas contradict the workload
        (``ok`` is the block's successful replies)."""
        delta = {k: after["stats"][k] - before["stats"][k] for k in after["stats"]}
        hits = delta["lru_hits"]
        computed = delta["computed"]
        if self.workload == "hot-hits":
            good = hits == ok and computed == 0
        elif self.workload == "oracle-miss":
            good = hits == 0 and delta["deduped"] == 0 and computed == ok
        else:
            good = computed == ok and delta["shed"] == 0 and delta["quota_shed"] == 0
        if not good:
            raise CheckFailed(
                f"{self.workload} block with {ok} successful replies did not do "
                f"what the workload claims: stats delta {delta}"
            )

    # -- blocks ----------------------------------------------------------
    def _frames(self, driven: Driven, n: int):
        specs, ids, frames = [], [], []
        for _ in range(n):
            spec = next(driven.stream)
            rid = next(self.ids)
            specs.append(spec)
            ids.append(rid)
            frames.append(encode(spec, rid))
            if spec["kind"] == "trace":
                driven.trace_sizes[rid] = spec["working_set"]
        return specs, ids, frames

    def block(self, driven: Driven, saturate: bool) -> None:
        """One timed block, then its checks (outside the timing).

        A saturating block yields one throughput window: ``WINDOW``
        requests pipelined, or on ``trace-chase`` one cycle of working
        sets one at a time.  Every one-in-flight request is also a
        latency sample.
        """
        one_at_a_time = not saturate or self.workload == "trace-chase"
        n = self.params["replies"] + 1 if saturate else self.params["latency"]
        if self.workload == "trace-chase":
            n = self.params["replies"]
        start_index = driven.index
        specs, ids, frames = self._frames(driven, n)
        daemon = driven.daemon
        conn = daemon.conn
        before = daemon.stats()
        if driven.stats_first is None:
            driven.stats_first = before
        cpu0 = daemon.cpu_s()
        ccpu0 = time.thread_time()
        t0 = time.perf_counter()
        if not one_at_a_time:
            data, times = conn.pipelined(frames, WINDOW)
            rates = windowed_throughput(times, n - 1)
            lat = []
        else:
            clock = time.perf_counter
            chunks, lat, times = [], [], [t0]
            for frame in frames:
                s = clock()
                chunks.append(conn.one(frame))
                e = clock()
                lat.append((e - s) * 1e3)
                times.append(e)
            data = b"".join(chunks)
            rates = windowed_throughput(times, n) if saturate else []
        driven.timed_s += time.perf_counter() - t0
        driven.client_cpu_s += time.thread_time() - ccpu0
        driven.cpu_s += daemon.cpu_s() - cpu0
        after = daemon.stats()
        driven.stats_last = after

        lines = data.split(b"\n")[:-1]
        if len(lines) != n:
            raise CheckFailed(f"expected {n} replies, got {len(lines)}")
        every = self.params["sample_every"]
        ok = 0
        for i, (spec, rid, line) in enumerate(zip(specs, ids, lines)):
            sampled = (start_index + i) % every == 0
            if not sampled and line.startswith(b'{"id":%d,"ok":true,' % rid):
                ok += 1  # the common case, without parsing the payload
                continue
            reply = json.loads(line)
            if reply.get("id") != rid:
                raise CheckFailed(f"reply {reply.get('id')} out of order (expected {rid})")
            if reply.get("ok"):
                ok += 1
                if sampled:
                    self._check_payload(spec, reply)
        self._check_block(before, after, ok)
        driven.index += n
        driven.sent += n
        driven.ok += ok
        self.sent += n
        driven.timed_ids.extend(ids)
        driven.lat_ms.extend(lat)
        if lat:
            driven.lat_blocks.append(statistics.median(lat))
        driven.rates.extend(rates)

    def prefill(self, driven: Driven, specs: List[Dict[str, Any]], window: int) -> None:
        """Untimed preparation: send ``specs`` once and check each reply."""
        frames = []
        for i, spec in enumerate(specs):
            rid = f"prep-{len(driven.trace_sizes)}-{i}"
            frames.append(encode(spec, rid))
            if spec["kind"] == "trace":
                driven.trace_sizes[rid] = spec["working_set"]
        data, _ = driven.daemon.conn.pipelined(frames, window)
        for spec, reply in zip(specs, parse_replies(data)):
            self._check_payload(spec, reply)

    # -- the run ---------------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        main = Driven(self.spawn(), workloads.stream(self.workload, self.seed))
        self.setup_s.append(main.daemon.setup_s)
        traced: Optional[Driven] = None
        if self.trace:
            traced = Driven(self.spawn(traced=True), workloads.stream(self.workload, self.seed))
        # The traced daemon only ever sees one request in flight, so each
        # span belongs to exactly one request.
        if self.workload == "hot-hits":
            self.prefill(main, workloads.hot_set(self.seed), WINDOW)
            if traced is not None:
                self.prefill(traced, workloads.hot_set(self.seed), 1)
        if traced is not None:
            self.prefill(traced, workloads.probe_specs(), 1)

        threads_peak = [0]
        stop_sampling = threading.Event()
        sampler = None
        if self.trace:
            def sample() -> None:
                while not stop_sampling.wait(0.01):
                    try:
                        threads_peak[0] = max(threads_peak[0], main.daemon.status("Threads"))
                    except (OSError, KeyError):
                        return
            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()

        checkpoints = [] if self.trace else [
            self.seconds * k / (SETUP_SPAWNS - 1) for k in range(1, SETUP_SPAWNS - 1)
        ]
        try:
            while main.timed_s + (traced.timed_s if traced else 0.0) < self.seconds:
                self.block(main, saturate=True)
                if self.params["latency"]:
                    self.block(main, saturate=False)
                if traced is not None:
                    self.block(traced, saturate=False)
                self.probes.append(host_probe_ms())
                if checkpoints and main.timed_s >= checkpoints[0]:
                    checkpoints.pop(0)
                    self.setup_spawn()
        finally:
            stop_sampling.set()
            if sampler is not None:
                sampler.join(timeout=5)
        rss_mb = main.daemon.status("VmRSS") / 1024.0
        placement = {
            "client_affinity": sorted(os.sched_getaffinity(0)),
            "daemon_affinity": sorted(os.sched_getaffinity(main.daemon.pid)),
            "daemon_last_cpu": main.daemon.last_cpu(),
        }
        while not self.trace and len(self.setup_s) < SETUP_SPAWNS:
            self.setup_spawn()
        self.stop_all()
        self.daemons.clear()
        return {
            "main": main,
            "traced": traced,
            "rss_mb": rss_mb,
            "threads_peak": threads_peak[0],
            "placement": placement,
        }


def host_record(probes: List[float], placement: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "affinity": ALLOWED_CPUS,
        **placement,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host.probe_ms": [round(p, 3) for p in probes],
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, out: Dict[str, Any]) -> Dict[str, Any]:
    main: Driven = out["main"]
    tput, n_rates = fast_percentile(main.rates, FAST_PCT, higher_is_better=True)
    p50, n_blocks = fast_percentile(main.lat_blocks, FAST_PCT, higher_is_better=False)
    values = {
        "setup_s": statistics.median(run.setup_s),
        "tput_rps": tput,
        "lat_p50_ms": p50,
        "ok_frac": main.ok / main.sent,
        "rss_mb": out["rss_mb"],
    }
    counts = {
        "setup_s": f"median of {len(run.setup_s)} spawns: "
                   + ", ".join(f"{s:.3f}" for s in run.setup_s),
        "tput_rps": f"reached by {FAST_PCT}% of {n_rates} windows of "
                    f"{run.params['replies']} replies; median "
                    f"{statistics.median(main.rates):.6g}, not gated",
        "lat_p50_ms": f"block median beaten by {FAST_PCT}% of {n_blocks} blocks, "
                      f"n={len(main.lat_ms)}; whole-run p50 "
                      f"{percentile(main.lat_ms, 50)[0]:.6g}, not gated",
        "ok_frac": f"{main.ok}/{main.sent}",
        "rss_mb": "daemon VmRSS after the timed phases",
    }
    for name, unit in END_TO_END:
        print(f"{run.workload} {name} {values[name]:.6g} {unit} ({counts[name]})")
    q, tail, n = highest_supported_tail(main.lat_ms)
    print(f"{run.workload} client.lat_p{q:g}_ms {tail:.4f} ms (n={n}; not gated)")
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(run: Run, out: Dict[str, Any]) -> Dict[str, Any]:
    from analysis import layer_metrics

    main: Driven = out["main"]
    traced: Driven = out["traced"]
    if traced.daemon.spans is None:
        raise CheckFailed("the traced daemon wrote no spans")
    untraced_p50, _ = percentile(main.lat_ms, 50)
    traced_p50, _ = percentile(traced.lat_ms, 50)
    metrics, lines = layer_metrics(
        traced.daemon.spans, set(traced.timed_ids), traced_p50, traced.trace_sizes
    )
    first, last = main.stats_first, main.stats_last
    lru0, lru1 = first["tiers"]["lru"], last["tiers"]["lru"]
    gets = (lru1["hits"] - lru0["hits"]) + (lru1["misses"] - lru0["misses"])
    q, tail, n_tail = highest_supported_tail(main.lat_ms)
    metrics.update({
        "lru.hit_frac": ((lru1["hits"] - lru0["hits"]) / max(1, gets), "ratio"),
        "lru.entries": (lru1["entries"], "count"),
        "lru.evictions": (lru1["evictions"] - lru0["evictions"], "count"),
        "daemon.cpu_us_per_req": (main.cpu_s / main.sent * 1e6, "us"),
        "daemon.threads_peak": (out["threads_peak"], "count"),
        "daemon.errors": (last["stats"]["errors"] - first["stats"]["errors"], "count"),
        "daemon.shed": (
            (last["stats"]["shed"] - first["stats"]["shed"])
            + (last["stats"]["quota_shed"] - first["stats"]["quota_shed"]),
            "count",
        ),
        "client.cpu_us_per_req": (main.client_cpu_s / main.sent * 1e6, "us"),
        "client.lat_p99_ms": (tail, "ms"),
        "client.lat_tail_pct": (q, "percent"),
        "host.probe_ms": (statistics.median(run.probes), "ms"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
    })
    print(f"{run.workload} untraced lat_p50_ms {untraced_p50:.4f} (n={len(main.lat_ms)}); "
          f"traced {traced_p50:.4f} (n={len(traced.lat_ms)})")
    print(f"{run.workload} client.lat_p{q:g}_ms {tail:.4f} ms (n={n_tail})")
    for line in lines:
        print(f"{run.workload} {line}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{run.workload} {name} {value:.6g} {unit}")
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve" / "__main__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    os.sched_setaffinity(0, BENCH_CPUS)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        out = run.execute()
    except CheckFailed as exc:
        run.kill_all()
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, run.sent),
                          "failed": 0, "metrics": {}}))
        return 1
    except BaseException:
        run.kill_all()
        raise
    main_run: Driven = out["main"]
    traced: Optional[Driven] = out["traced"]
    attempted = main_run.sent + (traced.sent if traced else 0)
    failed = attempted - main_run.ok - (traced.ok if traced else 0)
    metrics = per_layer(run, out) if run.trace else end_to_end(run, out)
    print("host " + json.dumps(host_record(run.probes, out["placement"])))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
