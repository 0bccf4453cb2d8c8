"""Blocking client for the serve daemon.

One TCP connection, newline-delimited JSON both ways.  The client is
deliberately synchronous: the consumers of the service are test
harnesses, load generators and CLI scripts, which all want a plain
call-and-return API::

    with ServeClient(host, port) as client:
        response = client.run(kind="analytic",
                              request={"kind": "chase", "working_set": 4 << 20})
        payload = response["payload"]        # bit-identical to a local run
        assert response["source"] in ("computed", "lru", "disk", "inflight")

``run`` raises :class:`ServeError` when the daemon answers ``ok:
false`` (malformed spec, lane failure after retries, load shed); the
response is attached for inspection, and its ``code`` field
(:data:`~repro.serve.protocol.ERROR_CODES`) is mirrored on the
exception.  A request that outlives its socket timeout raises
:class:`ServeTimeout` and marks the connection **broken** — responses
on the wire can no longer be matched to requests — so the next call
transparently reconnects.  Pass ``_busy_retries`` to ``run`` to have
the client honor the daemon's ``retry_after`` pacing hints on ``busy``/
``quota`` sheds instead of surfacing them.

The repo benchmark (``servebench/``) bypasses this class and pipelines
raw frames itself.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from .protocol import decode_message, encode_message

#: Error codes worth an automatic paced retry (load sheds, not bugs).
_RETRYABLE_CODES = ("busy", "quota")


class ServeError(RuntimeError):
    """The daemon answered a request with a structured error."""

    def __init__(self, message: str, response: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.response = response or {}
        #: Structured error code (``busy``, ``deadline``, ...) when the
        #: daemon sent one; None for legacy/unstructured errors.
        self.code = self.response.get("code")


class ServeTimeout(ServeError):
    """No response within the socket timeout; the connection is broken.

    After this, request/response pairing on the old socket is undefined
    (the daemon may still answer late), so the client reconnects before
    its next request rather than misattributing a stale response.
    """


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.daemon.ReproServer`."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._broken = False
        self._next_id = 0
        self.reconnects = 0
        self._connect()

    # -- connection management -----------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._reader = self._sock.makefile("rb")
        self._broken = False

    def reconnect(self) -> None:
        """Tear down the current socket and dial a fresh one."""
        self._teardown()
        self._connect()
        self.reconnects += 1

    def _teardown(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- core ----------------------------------------------------------------
    def request(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one message and block for its response.

        A message without an ``id`` gets a connection-local sequence
        number, so responses are attributable when callers log them.
        ``timeout`` overrides the connection default for this one
        request.  A broken connection (previous timeout/reset) is
        transparently redialed first.
        """
        if self._broken or self._sock is None:
            self.reconnect()
        assert self._sock is not None and self._reader is not None
        if "id" not in message:
            message = {**message, "id": self._next_id}
            self._next_id += 1
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._sock.sendall(encode_message(message))
            line = self._reader.readline()
        except socket.timeout:
            # The daemon may still answer later; this socket's framing
            # is no longer trustworthy.
            self._broken = True
            raise ServeTimeout(
                f"no response within {timeout or self.timeout}s"
            ) from None
        except OSError:
            self._broken = True
            raise
        finally:
            if timeout is not None and self._sock is not None:
                try:
                    self._sock.settimeout(self.timeout)
                except OSError:
                    pass
        if not line:
            self._broken = True
            raise ConnectionError("serve daemon closed the connection")
        return decode_message(line)

    def run(
        self,
        _timeout: Optional[float] = None,
        _busy_retries: int = 0,
        **spec: Any,
    ) -> Dict[str, Any]:
        """Submit one run spec; returns the full response on success.

        ``_timeout`` bounds this one call client-side; ``_busy_retries``
        re-submits up to N times on ``busy``/``quota`` sheds, sleeping
        the daemon's ``retry_after`` hint between attempts.
        """
        for attempt in range(_busy_retries + 1):
            response = self.request({"op": "run", **spec}, timeout=_timeout)
            if response.get("ok"):
                return response
            if (
                response.get("code") in _RETRYABLE_CODES
                and attempt < _busy_retries
            ):
                time.sleep(float(response.get("retry_after", 0.05)))
                continue
            raise ServeError(
                response.get("error", "request failed"), response=response
            )
        raise AssertionError("unreachable")

    # -- ops -----------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        response = self.request({"op": "stats"})
        if not response.get("ok"):
            raise ServeError(response.get("error", "stats failed"), response=response)
        return response

    def shutdown(self) -> None:
        """Ask the daemon to stop accepting work and exit its serve loop."""
        self.request({"op": "shutdown"})

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
