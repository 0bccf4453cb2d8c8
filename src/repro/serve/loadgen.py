"""Chaos load harness for the serve daemon (``python -m repro.bench perf chaos``).

Spawns the daemon as a real subprocess (``python -m repro.serve``), so
the measured service pays its own event loop, sockets and GIL — not
the harness's — then runs four phases against chaos-armed daemons:

1. **mixed faults** — every connection replays a deterministic,
   mostly-analytic stream while the daemon injects slow and crashing
   lanes, disk corruption and dropped connections, and the harness
   sends malformed and oversized lines and disconnects abruptly; every
   ``ok`` payload must be bit-identical to the locally computed one;
2. **quarantine** — a corrupted disk entry is quarantined and healed
   bit-identically;
3. **overload** — a slowed heavy lane with tight admission bounds must
   shed with ``busy``/``quota`` rows rather than queue without bound;
4. **drain** — SIGTERM mid-request ends the daemon with exit code 0 and
   its ``drained`` banner.

The end-to-end throughput and latency of the daemon are measured by the
repo benchmark (``servebench/``), not here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from .chaos import ChaosInjector, ChaosPlan
from .client import ServeClient, ServeError, ServeTimeout
from .protocol import MAX_LINE_BYTES

#: Spacing of the analytic chase working sets the harness requests.
_STEP = 4096


def chase_spec(working_set: int) -> Dict[str, Any]:
    """One analytic chase run spec (the loadgen's unit of traffic)."""
    return {
        "kind": "analytic",
        "request": {"kind": "chase", "working_set": int(working_set)},
    }


# -- daemon subprocess -------------------------------------------------------


def _subprocess_env() -> Dict[str, str]:
    """Inherited env with this repro checkout importable."""
    import repro

    env = dict(os.environ)
    root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root if not existing else os.pathsep.join([root, existing])
    return env


class DaemonProcess:
    """``python -m repro.serve`` as a child, port scraped from stdout.

    ``extra_args`` rides extra CLI flags along (``--chaos``, admission
    bounds) for the chaos harness; :meth:`terminate_and_wait` delivers
    SIGTERM and collects the drain banner the daemon prints on the way
    out.
    """

    def __init__(
        self,
        cache_dir: str,
        lru_capacity: int,
        extra_args: Sequence[str] = (),
    ) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", cache_dir,
                "--lru-capacity", str(lru_capacity),
                *extra_args,
            ],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline().strip()
            if line.startswith("chaos armed: "):
                continue  # informational banner ahead of the port line
            break
        if not line.startswith("listening on "):
            self.proc.kill()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        host, _, port = line.rpartition("listening on ")[2].rpartition(":")
        self.host, self.port = host, int(port)

    def terminate_and_wait(self, timeout: float = 30.0) -> Tuple[int, str]:
        """SIGTERM the daemon; returns ``(exit_code, remaining stdout)``."""
        import signal

        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out or ""

    def stop(self) -> None:
        if self.proc.poll() is not None:
            return
        try:
            with ServeClient(self.host, self.port, timeout=10) as client:
                client.shutdown()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


# -- chaos harness -----------------------------------------------------------

#: Analytic working sets for the chaos replay.
CHAOS_HOT_BASE = 512 << 20
CHAOS_HOT_SET = 64

DEFAULT_CHAOS_REQUESTS = 4000
DEFAULT_CHAOS_CONNECTIONS = 4
DEFAULT_CHAOS_SEED = 0

#: Server-side fault plan for the mixed-fault replay: every server
#: fault class at rates that keep expected availability ~99.7%.
CHAOS_SERVER_SPEC = (
    "slow_lane:rate=0.05,delay_ms=5;"
    "lane_error:rate=0.02;"
    "corrupt_disk:rate=0.2;"
    "drop_conn:rate=0.002"
)

#: Client-side fault plan (driven by the loadgen itself): malformed and
#: oversized lines plus abrupt disconnect/reconnect cycles.
CHAOS_CLIENT_SPEC = (
    "malformed_line:rate=0.01;"
    "oversized_line:rate=0.005;"
    "client_disconnect:rate=0.005"
)

#: The two trace specs mixed into the chaos replay (computed locally
#: for the bit-identity check; small enough to recompute cheaply after
#: every injected corruption).
CHAOS_TRACE_SPECS = (
    {"kind": "trace", "working_set": 64 * 1024, "shards": 2, "seed": 7},
    {"kind": "trace", "working_set": 128 * 1024, "seed": 11},
)


def _chaos_expected() -> Dict[str, Any]:
    """Locally computed ground-truth payloads, keyed by spec JSON."""
    from ..arch import e870
    from ..parallel.runner import sharded_traced_latency
    from ..perfmodel.oracle import AnalyticOracle, OracleRequest
    from .protocol import canonical, trace_payload

    system = e870()
    oracle = AnalyticOracle(system)
    expected: Dict[str, Any] = {}
    for j in range(CHAOS_HOT_SET):
        spec = chase_spec(CHAOS_HOT_BASE + j * _STEP)
        expected[json.dumps(spec, sort_keys=True)] = canonical(
            oracle.predict(
                OracleRequest(kind="chase", working_set=spec["request"]["working_set"])
            ).to_dict()
        )
    for spec in CHAOS_TRACE_SPECS:
        _, result = sharded_traced_latency(
            system,
            spec["working_set"],
            shards=spec.get("shards", 1),
            seed=spec["seed"],
        )
        expected[json.dumps(spec, sort_keys=True)] = trace_payload(result)
    return expected


def _chaos_schedule(total: int) -> List[Dict[str, Any]]:
    """Deterministic request mix: mostly hot analytic, every 16th a
    trace (cached after its first computation)."""
    schedule = []
    for i in range(total):
        if i % 16 == 15:
            schedule.append(dict(CHAOS_TRACE_SPECS[(i // 16) % len(CHAOS_TRACE_SPECS)]))
        else:
            schedule.append(chase_spec(CHAOS_HOT_BASE + (i % CHAOS_HOT_SET) * _STEP))
    return schedule


def _chaos_worker(
    host: str,
    port: int,
    schedule: Sequence[Dict[str, Any]],
    expected: Dict[str, Any],
    injector: ChaosInjector,
    out: Dict[str, Any],
) -> None:
    """Replay one schedule through every fault class, scoring the
    invariant: an ``ok`` non-degraded response must be bit-identical to
    the locally computed payload; anything else must be a structured
    error row (or a clean reconnect), never corrupt bytes."""
    counters = {
        "requests": 0, "ok": 0, "errors": 0, "violations": 0,
        "degraded": 0, "dropped": 0, "timeouts": 0,
        "malformed_sent": 0, "oversized_sent": 0, "disconnects_injected": 0,
    }
    latencies: List[float] = []
    client = ServeClient(host, port, timeout=60)
    try:
        for spec in schedule:
            fault = injector.on_client_send()
            if fault == "client_disconnect":
                # Abrupt mid-stream close; the daemon must shrug it off.
                counters["disconnects_injected"] += 1
                client.close()
                client = ServeClient(host, port, timeout=60)
            elif fault in ("malformed_line", "oversized_line"):
                line = (
                    b"this is not json\n"
                    if fault == "malformed_line"
                    else b'{"pad":"' + b"x" * MAX_LINE_BYTES + b'"}\n'
                )
                counters[
                    "malformed_sent" if fault == "malformed_line" else "oversized_sent"
                ] += 1
                if client._broken or client._sock is None:
                    client.reconnect()
                try:
                    client._sock.sendall(line)
                    bad = json.loads(client._reader.readline())
                    if bad.get("ok") is not False:
                        counters["violations"] += 1
                except (ConnectionError, OSError):
                    client.close()
                    client = ServeClient(host, port, timeout=60)
            counters["requests"] += 1
            start = time.perf_counter()
            try:
                response = client.run(**spec)
            except ServeTimeout:
                counters["timeouts"] += 1
                counters["errors"] += 1
                continue
            except ServeError as exc:
                if not exc.response.get("code") and not exc.response.get("error"):
                    counters["violations"] += 1  # unstructured failure
                counters["errors"] += 1
                continue
            except (ConnectionError, OSError):
                # drop_conn landed on us: reconnect, score unavailability.
                counters["dropped"] += 1
                counters["errors"] += 1
                try:
                    client.close()
                except OSError:
                    pass
                client = ServeClient(host, port, timeout=60)
                continue
            latencies.append(time.perf_counter() - start)
            if response.get("degraded"):
                counters["degraded"] += 1
                counters["ok"] += 1
                continue
            counters["ok"] += 1
            if response["payload"] != expected[json.dumps(spec, sort_keys=True)]:
                counters["violations"] += 1
    finally:
        try:
            client.close()
        except OSError:
            pass
    out.update(counters)
    out["latencies"] = latencies


def run_chaos_bench(
    requests: int = DEFAULT_CHAOS_REQUESTS,
    connections: int = DEFAULT_CHAOS_CONNECTIONS,
    seed: int = DEFAULT_CHAOS_SEED,
) -> Dict[str, Any]:
    """The ``perf chaos`` harness: availability and tail latency under
    a seeded mixed-fault replay, plus deterministic quarantine, overload
    and drain probes.  Returns the ``BENCH_chaos.json`` payload."""
    expected = _chaos_expected()
    results: Dict[str, Any] = {
        "benchmark": "serve-daemon-chaos",
        "requests": int(requests),
        "connections": int(connections),
        "seed": int(seed),
        "server_chaos": CHAOS_SERVER_SPEC,
        "client_chaos": CHAOS_CLIENT_SPEC,
    }
    client_plan = ChaosPlan.parse(CHAOS_CLIENT_SPEC)

    # -- phase 1: mixed-fault replay ------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-bench-") as tmp:
        with DaemonProcess(
            tmp,
            lru_capacity=1024,
            extra_args=["--chaos", CHAOS_SERVER_SPEC, "--chaos-seed", str(seed)],
        ) as daemon:
            per_conn = requests // connections
            schedule = _chaos_schedule(per_conn)
            outs: List[Dict[str, Any]] = [{} for _ in range(connections)]
            threads = [
                threading.Thread(
                    target=_chaos_worker,
                    args=(
                        daemon.host, daemon.port, schedule, expected,
                        ChaosInjector(client_plan, seed=seed + i), outs[i],
                    ),
                )
                for i in range(connections)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            for out in outs:
                if "requests" not in out:
                    raise RuntimeError("a chaos worker died before reporting")
            with ServeClient(daemon.host, daemon.port, timeout=10) as probe:
                stats = probe.stats()
            latencies = sorted(lat for out in outs for lat in out["latencies"])
            total = sum(out["requests"] for out in outs)
            ok = sum(out["ok"] for out in outs)
            results["mixed_fault"] = {
                "wall_s": wall,
                "requests": total,
                "ok": ok,
                "errors": sum(out["errors"] for out in outs),
                "violations": sum(out["violations"] for out in outs),
                "degraded": sum(out["degraded"] for out in outs),
                "dropped": sum(out["dropped"] for out in outs),
                "timeouts": sum(out["timeouts"] for out in outs),
                "malformed_sent": sum(out["malformed_sent"] for out in outs),
                "oversized_sent": sum(out["oversized_sent"] for out in outs),
                "disconnects_injected": sum(
                    out["disconnects_injected"] for out in outs
                ),
                "availability": ok / total if total else 0.0,
                "p50_ms": _percentile(latencies, 0.50) * 1e3,
                "p99_ms": _percentile(latencies, 0.99) * 1e3,
                "server_stats": stats["stats"],
                "server_chaos_counts": stats.get("chaos"),
            }

    # -- phase 2: deterministic corrupt-disk quarantine + self-heal -----
    with tempfile.TemporaryDirectory(prefix="repro-chaos-quar-") as tmp:
        with DaemonProcess(
            tmp,
            lru_capacity=4,
            extra_args=["--chaos", "corrupt_disk:at=1", "--chaos-seed", str(seed)],
        ) as daemon:
            with ServeClient(daemon.host, daemon.port, timeout=60) as client:
                target = dict(CHAOS_TRACE_SPECS[0])
                first = client.run(**target)
                # Evict the target from the 4-entry LRU so the next
                # fetch must read the (corrupted) disk entry.
                for j in range(8):
                    client.run(**chase_spec(CHAOS_HOT_BASE + j * _STEP))
                healed = client.run(**target)
                stats = client.stats()
        results["quarantine"] = {
            "first_source": first["source"],
            "healed_source": healed["source"],
            "payload_identical": first["payload"] == healed["payload"],
            "quarantined": stats["tiers"]["disk"]["quarantined"],
        }

    # -- phase 3: overload shedding -------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-load-") as tmp:
        with DaemonProcess(
            tmp,
            lru_capacity=64,
            extra_args=[
                "--chaos", "slow_lane:rate=1,delay_ms=400,lane=trace",
                "--chaos-seed", str(seed),
                "--max-heavy", "2",
                "--client-heavy-quota", "2",
            ],
        ) as daemon:
            shed: Dict[str, int] = {"busy": 0, "quota": 0, "ok": 0, "other": 0}
            lock = threading.Lock()

            def _flood(offset: int) -> None:
                with ServeClient(daemon.host, daemon.port, timeout=60) as c:
                    for j in range(4):
                        spec = {
                            "kind": "trace",
                            "working_set": 64 * 1024,
                            "seed": 100 + offset * 4 + j,
                        }
                        try:
                            c.run(**spec)
                            with lock:
                                shed["ok"] += 1
                        except ServeError as exc:
                            with lock:
                                if exc.code in ("busy", "quota"):
                                    shed[exc.code] += 1
                                else:
                                    shed["other"] += 1

            threads = [
                threading.Thread(target=_flood, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(daemon.host, daemon.port, timeout=10) as probe:
                stats = probe.stats()
        results["overload"] = {
            **shed,
            "total_shed": shed["busy"] + shed["quota"],
            "server_shed": stats["stats"]["shed"],
            "server_quota_shed": stats["stats"]["quota_shed"],
        }

    # -- phase 4: SIGTERM drain -----------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-drain-") as tmp:
        daemon = DaemonProcess(
            tmp, lru_capacity=64, extra_args=["--drain-timeout", "10"]
        )
        try:
            slow = threading.Thread(
                target=lambda: _swallow(
                    lambda: ServeClient(daemon.host, daemon.port, timeout=30).run(
                        kind="trace", working_set=256 * 1024, seed=999
                    )
                )
            )
            slow.start()
            time.sleep(0.2)  # let the request reach a lane
            exit_code, tail = daemon.terminate_and_wait()
            slow.join(timeout=30)
        finally:
            daemon.stop()
        drained_line = next(
            (l for l in tail.splitlines() if l.startswith("drained ")), ""
        )
        results["drain"] = {
            "exit_code": exit_code,
            "drained_line_present": bool(drained_line),
            "final_stats": (
                json.loads(drained_line[len("drained "):]) if drained_line else None
            ),
        }

    results["note"] = (
        "availability = ok responses / requests under the seeded mixed-fault "
        "replay (server: slow/crashing lanes, disk corruption, dropped "
        "connections; client: malformed/oversized lines, abrupt "
        "disconnects); violations counts any ok non-degraded payload that "
        "was not bit-identical to the locally computed ground truth, and "
        "the gate in benchmarks/test_perf_chaos.py requires zero."
    )
    return results


def _swallow(fn) -> None:
    """Run ``fn`` ignoring every exception (drain-phase background load:
    the request may legitimately be cancelled or cut mid-drain)."""
    try:
        fn()
    except Exception:
        pass
