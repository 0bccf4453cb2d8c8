"""The benchmark's side of the wire: daemon processes and one connection.

The client speaks the daemon's newline-delimited JSON directly over a
socket instead of using ``repro.serve.client``, so a change to the
program's own client cannot change what is measured.  Inside a timed
loop it only sends pre-encoded bytes and counts newlines; replies are
parsed after the block.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds to wait for a daemon's ``listening`` line or any reply.
TIMEOUT_S = 60.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


#: The CPUs this process may use when the benchmark starts.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

#: The client and every daemon share one CPU.  A one-in-flight round
#: trip then never leaves that CPU idle, so no reply waits for the
#: hypervisor to wake a halted vCPU (on split CPUs whole runs flipped
#: between two latency levels 40% apart), and the daemon's loop and lane
#: threads never migrate.  The saturated rate includes the client's
#: share of the CPU, ``client.cpu_us_per_req`` in the traced run.
BENCH_CPUS = {ALLOWED_CPUS[-1]}


def encode(spec: Dict[str, Any], request_id: Any) -> bytes:
    return json.dumps({"id": request_id, **spec}, separators=(",", ":")).encode() + b"\n"


class Conn:
    """One blocking TCP connection to a daemon."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def one(self, frame: bytes) -> bytes:
        """Send one request and return its reply line (one in flight)."""
        sock = self.sock
        sock.sendall(frame)
        chunk = sock.recv(1 << 20)
        if chunk.endswith(b"\n"):
            return chunk
        parts = [chunk]
        while True:
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            chunk = sock.recv(1 << 20)
            parts.append(chunk)
            if chunk.endswith(b"\n"):
                return b"".join(parts)

    def pipelined(self, frames: Sequence[bytes], window: int) -> Tuple[bytes, List[float]]:
        """Keep ``window`` requests in flight until every frame is answered.

        Returns the raw reply bytes and one arrival timestamp per reply.
        """
        sock = self.sock
        n = len(frames)
        sent = min(window, n)
        sock.sendall(b"".join(frames[:sent]))
        got = 0
        chunks: List[bytes] = []
        times: List[float] = []
        clock = time.perf_counter
        while got < n:
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            now = clock()
            chunks.append(chunk)
            k = chunk.count(b"\n")
            if k:
                times.extend([now] * k)
                got += k
                if sent < n:
                    nxt = min(n, sent + k)
                    sock.sendall(b"".join(frames[sent:nxt]))
                    sent = nxt
        return b"".join(chunks), times

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return json.loads(self.one(json.dumps(message).encode() + b"\n"))

    def close(self) -> None:
        self.sock.close()


def parse_replies(data: bytes) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in data.split(b"\n") if line]


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Daemon:
    """One ``repro.serve`` process at default flags, spawned and timed.

    ``setup_s`` is the time from spawning, through the ``listening``
    line, to the replies for ``setup_frames`` (one analytic request per
    zoo machine, pipelined on one connection).
    """

    def __init__(self, setup_frames: Sequence[bytes], traced: bool = False) -> None:
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro.serve"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ["--port", "0"],
            cwd=str(ROOT),
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.conn: Optional[Conn] = None
        self.spans: Optional[list] = None
        try:
            os.sched_setaffinity(self.proc.pid, BENCH_CPUS)
            line = self._readline(TIMEOUT_S)
            if not line.startswith("listening on "):
                raise RuntimeError(f"daemon failed to start: {line!r}")
            host, _, port = line[len("listening on "):].strip().rpartition(":")
            self.conn = Conn(host, int(port))
            # A traced daemon takes one request at a time, so every span
            # belongs to exactly one request.
            window = 1 if traced else len(setup_frames)
            data, _ = self.conn.pipelined(list(setup_frames), window)
            self.setup_s = time.perf_counter() - t0
            self.setup_replies = parse_replies(data)
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _readline(self, timeout: float) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("daemon printed nothing")
        return self.proc.stdout.readline()

    def stats(self) -> Dict[str, Any]:
        assert self.conn is not None
        return self.conn.call({"op": "stats", "id": "stats"})

    def cpu_s(self) -> float:
        """User plus system CPU seconds the daemon has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def last_cpu(self) -> int:
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return int(fields[36])

    def status(self, field: str) -> int:
        """An integer field of ``/proc/<pid>/status`` (``VmRSS`` in kB,
        ``Threads``)."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
        raise KeyError(field)

    def stop(self) -> None:
        """Drain through the ``shutdown`` op and wait for the exit; a
        traced daemon's spans are read from its last stdout line."""
        if self.conn is not None:
            try:
                if self.proc.poll() is None:
                    self.conn.call({"op": "shutdown", "id": "shutdown"})
            except OSError:
                pass
            finally:
                # An open connection would hold the drain until its timeout.
                self.conn.close()
                self.conn = None
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        for line in (out or "").splitlines():
            if line.startswith("spans "):
                self.spans = json.loads(line[len("spans "):])

    def kill(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
