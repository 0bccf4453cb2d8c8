"""The machine zoo: a name -> :class:`SystemSpec` factory registry.

Every modelled machine is registered here under a canonical dashed name
("sparc-t3-4") plus whatever aliases history accumulated ("e870",
"power8_192way").  Lookup is forgiving about case and the
underscore/dash distinction so CLI flags, serve-protocol machine fields
and test parametrizations all share one namespace.

After this registry, adding a machine is data, not code: write a spec
module, register its system factory, and every engine — analytic
oracle, batch/reference trace simulators, prefetch sweeps, roofline,
serve daemon, comparative bench — picks it up by name.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .broadwell import broadwell_2s
from .cascade_lake import cascade_lake_2s
from .e870 import e870, power8_192way
from .power7 import power7_chip
from .specs import BusSpec, SystemSpec
from .sparc_t3_4 import sparc_t3_4

__all__ = [
    "MACHINES",
    "available_machines",
    "canonical_name",
    "get_system",
    "power7_4s",
    "register_machine",
    "spec_fingerprint",
]


def power7_4s() -> SystemSpec:
    """A four-socket POWER7 (Power 750 class): one group, all-to-all.

    The Table I baseline chip placed in a small SMP so the zoo can
    compare POWER7 against its successor at the system level.
    """
    return SystemSpec(
        name="IBM POWER7 (4S)",
        chip=power7_chip(),
        num_chips=4,
        group_size=4,
        x_bus=BusSpec("W/X/Y-bus", 19.2e9, latency_ns=45.0),
        a_bus=BusSpec("unused-a", 19.2e9, latency_ns=45.0),
        x_layout_delta_ns=(),
        transit_x_hop_ns=28.0,
        prefetch_residual_fraction=0.10,
    )


#: Canonical name -> zero-argument system factory.
MACHINES: Dict[str, Callable[[], SystemSpec]] = {
    "power8": e870,
    "power8-192way": power8_192way,
    "power7": power7_4s,
    "sparc-t3-4": sparc_t3_4,
    "broadwell": broadwell_2s,
    "cascade-lake": cascade_lake_2s,
}

#: Legacy / convenience aliases -> canonical names.
ALIASES: Dict[str, str] = {
    "e870": "power8",
    "p8": "power8",
    "power-e870": "power8",
    "192way": "power8-192way",
    "p7": "power7",
    "t3-4": "sparc-t3-4",
    "sparc": "sparc-t3-4",
    "bdw": "broadwell",
    "clx": "cascade-lake",
    "cascadelake": "cascade-lake",
}

_CACHE: Dict[str, SystemSpec] = {}

#: Canonical name -> fingerprint of the spec memoized in ``_CACHE``.
_FINGERPRINTS: Dict[str, str] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def canonical_name(name: str) -> str:
    """Resolve ``name`` (any case, ``_`` or ``-``) to its canonical key.

    Raises :class:`KeyError` listing the known machines when the name is
    not registered.
    """
    key = _normalize(name)
    key = ALIASES.get(key, key)
    if key not in MACHINES:
        raise KeyError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        )
    return key


def get_system(name: str) -> SystemSpec:
    """The (memoized) :class:`SystemSpec` registered under ``name``."""
    key = canonical_name(name)
    if key not in _CACHE:
        _CACHE[key] = MACHINES[key]()
    return _CACHE[key]


def spec_fingerprint(system: object) -> str:
    """A spec's identity in every content-addressed key: its ``repr``.

    Specs are frozen dataclasses whose repr enumerates every field, so
    the text changes iff a model parameter does.  The result-cache key
    (:func:`repro.parallel.cache.cache_key`) and the compiled-model
    registry (:func:`repro.perfmodel.compiled.compiled_model`) both key
    on it.  The shared spec :func:`get_system` hands out for a name is
    rendered once per canonical name; any other spec (a custom one, or
    a fresh factory call) is rendered on every call.
    """
    for name, spec in tuple(_CACHE.items()):
        if spec is system:
            text = _FINGERPRINTS.get(name)
            if text is None:
                text = _FINGERPRINTS[name] = repr(system)
            return text
    return repr(system)


def available_machines() -> List[str]:
    """Sorted canonical names of every registered machine."""
    return sorted(MACHINES)


def register_machine(
    name: str, factory: Callable[[], SystemSpec], *, aliases: tuple = ()
) -> None:
    """Register a new machine (tests and downstream experiments).

    ``name`` is canonicalized; re-registering an existing name replaces
    the factory and drops any memoized spec.
    """
    key = _normalize(name)
    MACHINES[key] = factory
    _CACHE.pop(key, None)
    _FINGERPRINTS.pop(key, None)
    for alias in aliases:
        ALIASES[_normalize(alias)] = key
