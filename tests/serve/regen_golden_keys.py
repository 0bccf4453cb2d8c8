"""Cache-key golden for the serve protocol and the result cache.

Pins ``NormalizedRequest.key()`` for a fixed set of run specs on every
zoo machine: the default request of each oracle kind, one registry
experiment and one trace request.  It also pins ``ResultCache.key`` for
the ``python -m repro.bench table1`` cache entry (no ``--machine``, so
a fresh ``e870()`` spec).  These keys address every LRU, disk and
in-flight entry, so ``tests/serve/test_golden_keys.py`` fails on any
change to the key material: a re-key has to be a deliberate
``CACHE_VERSION`` bump, committed with a regenerated golden.

Regenerate with::

    PYTHONPATH=src python -m tests.serve.regen_golden_keys
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.arch import e870
from repro.arch import registry as machine_registry
from repro.parallel.cache import ResultCache
from repro.perfmodel.oracle import REQUEST_KINDS
from repro.serve.protocol import normalize_request

GOLDEN_KEYS_PATH = Path(__file__).resolve().parent / "golden_keys.json"

#: Every zoo machine and every oracle request kind: registering a new
#: one fails the golden's coverage check until it is regenerated.
MACHINES = tuple(machine_registry.MACHINES)
KINDS = tuple(REQUEST_KINDS)

#: The non-analytic specs pinned on every machine.
EXPERIMENT_SPEC = {"kind": "experiment", "experiment": "table1"}
TRACE_SPEC = {"kind": "trace", "working_set": 64 << 10, "shards": 2, "seed": 7}


def specs() -> List[Tuple[str, Dict[str, object]]]:
    """``(label, run spec without machine)`` for every pinned key."""
    out: List[Tuple[str, Dict[str, object]]] = [
        (f"analytic:{kind}", {"kind": "analytic", "request": {"kind": kind}})
        for kind in KINDS
    ]
    out.append(("experiment:table1", dict(EXPERIMENT_SPEC)))
    out.append(("trace", dict(TRACE_SPEC)))
    return out


def request_key(machine: str, spec: Dict[str, object]) -> str:
    """The key the daemon files one run spec under."""
    return normalize_request({**spec, "machine": machine}).key()


def bench_cli_key() -> str:
    """The ``repro.bench table1`` result-cache key (default machine)."""
    return ResultCache("unused").key(
        machine=e870(), workload={"experiment": "table1"}, seed=0
    )


def golden_keys() -> dict:
    return {
        "generated_by": "tests/serve/regen_golden_keys.py",
        "keys": {
            machine: {label: request_key(machine, spec) for label, spec in specs()}
            for machine in MACHINES
        },
        "bench_cli": {"table1": bench_cli_key()},
    }


def main() -> None:
    payload = golden_keys()
    GOLDEN_KEYS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    n = sum(len(section) for section in payload["keys"].values()) + 1
    print(f"wrote {GOLDEN_KEYS_PATH} ({n} keys)")


if __name__ == "__main__":
    main()
