"""Byte-exact payload golden for the analytic oracle.

Pins ``payload_digest`` of every analytic payload the repository
benchmark (``servebench/workloads.py``) asks the serve daemon for: the
default request of each oracle kind, plus ``chase`` at every working
set the benchmark streams draw, on every zoo machine.  The digest is
taken over exactly what the daemon caches — the spec normalized by
``repro.serve.protocol.normalize_request``, answered by
``AnalyticOracle.predict`` and round-tripped through ``canonical`` — so
``tests/perfmodel/test_golden_payloads.py`` fails on any change to a
served byte, including a 1-ulp change the differential tolerances
would let through.

After an *intentional* model change, regenerate with::

    PYTHONPATH=src python -m tests.perfmodel.regen_golden_payloads

and commit the updated JSON together with the change that motivated it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.arch import registry as machine_registry
from repro.parallel.cache import payload_digest
from repro.perfmodel.oracle import REQUEST_KINDS, AnalyticOracle, OracleRequest
from repro.serve.protocol import canonical, get_system, normalize_request

GOLDEN_PAYLOADS_PATH = Path(__file__).resolve().parent / "golden_payloads.json"

#: Every zoo machine and every oracle request kind: registering a new
#: one fails the golden's coverage check until it is regenerated.
MACHINES = tuple(machine_registry.MACHINES)
KINDS = tuple(REQUEST_KINDS)

#: ``chase`` working sets the benchmark sends: its stream sizes plus
#: the 16 MiB set-up request.
CHASE_WORKING_SETS = (16 << 10, 256 << 10, 4 << 20, 16 << 20, 64 << 20, 1 << 30)


def requests() -> List[Tuple[str, Dict[str, object]]]:
    """``(label, oracle request dict)`` for every pinned payload."""
    out: List[Tuple[str, Dict[str, object]]] = [(kind, {"kind": kind}) for kind in KINDS]
    out += [
        (f"chase@{ws}", {"kind": "chase", "working_set": ws})
        for ws in CHASE_WORKING_SETS
    ]
    return out


def served_digest(machine: str, request: Dict[str, object]) -> str:
    """Digest of the payload the daemon serves for one analytic spec."""
    normalized = normalize_request(
        {"kind": "analytic", "machine": machine, "request": request}
    )
    oracle = AnalyticOracle(get_system(normalized.machine))
    result = oracle.predict(
        OracleRequest.from_dict(normalized.workload_dict()["request"])
    )
    return payload_digest(canonical(result.to_dict()))


def golden_payload() -> dict:
    return {
        "generated_by": "tests/perfmodel/regen_golden_payloads.py",
        "digests": {
            machine: {
                label: served_digest(machine, request)
                for label, request in requests()
            }
            for machine in MACHINES
        },
    }


def main() -> None:
    payload = golden_payload()
    GOLDEN_PAYLOADS_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    n = sum(len(section) for section in payload["digests"].values())
    print(f"wrote {GOLDEN_PAYLOADS_PATH} ({n} payloads)")


if __name__ == "__main__":
    main()
