"""Start the serve daemon with spans around each layer's public calls.

Usage: ``python launcher.py [repro.serve flags...]`` with ``src`` on
``PYTHONPATH``.  The launcher wraps each timed function where its
caller looks it up (``repro.serve.daemon`` binds ``normalize_request``
at import, so the daemon's copy is the one wrapped), then runs
``repro.serve.__main__.main`` unchanged.  Spans stay in memory; after
the daemon drains, one line ``spans <json>`` goes to stdout.

A span row is ``[name, start_ns, end_ns, parent, request_id, n]``:
``parent`` is the row index of the enclosing span (the innermost open
span on the same thread, or, for a lane thread, the ``handle_request``
span of the request being served) and ``n`` is the number of addresses
for the batch-engine calls.  Request ids are exact because the traced
run keeps one request in flight.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

_SPANS: list = []
_LOCK = threading.Lock()
_LOCAL = threading.local()
#: ``[root row, request id]`` of the request being handled.
_CURRENT = [None, None]


def _open(name, n=None, rid=None):
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    parent = stack[-1] if stack else _CURRENT[0]
    row = [name, time.perf_counter_ns(), None, parent,
           _CURRENT[1] if rid is None else rid, n]
    with _LOCK:
        idx = len(_SPANS)
        _SPANS.append(row)
    stack.append(idx)
    return row, stack, idx


def _close(row, stack):
    row[2] = time.perf_counter_ns()
    stack.pop()


def wrap(owner, attr, name, count=None, tag=None):
    """Replace ``owner.attr`` by a spanned copy.

    ``name`` is a string or a function of the call's arguments;
    ``count`` gives the span's ``n``; ``tag(args, result)`` returns the
    request id for calls made outside ``handle_request`` (framing).
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        row, stack, _ = _open(
            name(*args) if callable(name) else name,
            count(*args) if count is not None else None,
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(row, stack)
        if tag is not None and row[4] is None:
            row[4] = tag(args, result)
        return result

    setattr(owner, attr, spanned)


def wrap_handle_request(server_cls):
    fn = server_cls.handle_request

    @functools.wraps(fn)
    async def spanned(self, message, client=None):
        row, stack, idx = _open("daemon.handle", rid=message.get("id"))
        _CURRENT[0], _CURRENT[1] = idx, row[4]
        try:
            return await fn(self, message, client)
        finally:
            _close(row, stack)
            _CURRENT[0] = _CURRENT[1] = None

    server_cls.handle_request = spanned


def _message_id(message):
    return message.get("id") if isinstance(message, dict) else None


def install():
    from repro.mem import batch
    from repro.parallel import runner
    from repro.perfmodel import oracle
    from repro.serve import daemon, lru, protocol

    wrap(daemon, "decode_message", "protocol.decode",
         tag=lambda args, result: _message_id(result))
    wrap(daemon, "encode_message", "protocol.encode",
         tag=lambda args, result: _message_id(args[0]))
    wrap(daemon, "normalize_request", "protocol.normalize")
    wrap(protocol.NormalizedRequest, "key", "protocol.key")
    wrap(protocol, "canonical", "protocol.canonical")
    wrap(daemon, "canonical", "protocol.canonical")
    wrap(daemon, "trace_payload", "protocol.trace_payload")
    wrap(protocol, "cache_key", "cache.key")
    wrap(lru, "payload_digest", "cache.digest")
    wrap(lru.TieredResultCache, "get", "lru.get")
    wrap(lru.TieredResultCache, "put", "lru.put")
    wrap(oracle.AnalyticOracle, "predict",
         lambda self, request: f"oracle.predict.{request.kind}")
    wrap(oracle, "compiled_model", "compiled.build")
    wrap(daemon, "sharded_traced_latency", "runner.trace")
    wrap(runner, "merge_trace_outcomes", "runner.merge")
    wrap(batch.BatchMemoryHierarchy, "__init__", "batch.construct")
    wrap(batch.BatchMemoryHierarchy, "warm", "batch.warm",
         count=lambda self, addrs, *rest: len(addrs))
    wrap(batch.BatchMemoryHierarchy, "access_trace", "batch.access",
         count=lambda self, addrs, *rest: len(addrs))
    wrap_handle_request(daemon.ReproServer)


def main(argv):
    install()
    from repro.serve.__main__ import main as serve_main

    code = serve_main(argv)
    with _LOCK:
        rows = list(_SPANS)
    sys.stdout.write("spans " + json.dumps(rows, separators=(",", ":")) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
