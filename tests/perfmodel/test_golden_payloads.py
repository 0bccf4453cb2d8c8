"""Every analytic payload the benchmark requests is byte-identical to
the pinned golden (``golden_payloads.json``).

The differential suite checks the oracle against the trace simulator
within tolerances; this one pins the oracle's served bytes exactly, so
a refactor of the oracle, its compiled models or the capacity model
that moves any payload by even one ulp fails here.
"""

import json

import pytest

from tests.perfmodel.regen_golden_payloads import (
    GOLDEN_PAYLOADS_PATH,
    MACHINES,
    requests,
    served_digest,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PAYLOADS_PATH.read_text(encoding="utf-8"))["digests"]


def test_golden_covers_every_machine_and_request(golden):
    labels = {label for label, _ in requests()}
    assert set(golden) == set(MACHINES)
    for section in golden.values():
        assert set(section) == labels


@pytest.mark.parametrize("machine", MACHINES)
def test_payloads_match_golden(golden, machine):
    mismatched = [
        label
        for label, request in requests()
        if served_digest(machine, request) != golden[machine][label]
    ]
    assert not mismatched, f"{machine}: payload bytes changed for {mismatched}"
