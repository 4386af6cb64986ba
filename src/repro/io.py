"""JSON (de)serialization of instances and allocations.

Experiments and downstream users need to persist workloads and results:
benchmark instances are generated once and reused, allocations are archived
next to the experiment numbers they produced, and bug reports attach the
exact instance that triggered them.  This module provides a stable,
human-readable JSON schema for the three core object kinds:

* :class:`~repro.flows.instance.UFPInstance` (graph + requests + metadata),
* :class:`~repro.auctions.instance.MUCAInstance` (multiplicities + bids),
* :class:`~repro.flows.allocation.Allocation` /
  :class:`~repro.auctions.allocation.MUCAAllocation` (references the
  instance by embedded copy, so a result file is self-contained).

The schema is versioned (``"schema"`` field) so future format changes can be
detected instead of mis-parsed.

Non-finite floats
-----------------
Metric payloads legitimately contain ``inf``/``nan`` —
:func:`repro.experiments.harness.ratio` returns ``math.inf`` when nothing
was achieved, and several experiment columns use ``nan`` for "not
measured".  Python's ``json.dumps`` emits the non-standard ``Infinity`` /
``NaN`` tokens for them, which strict JSON parsers (and most other
languages) reject.  Every file this module (and the
:mod:`repro.scenarios` result store) writes therefore encodes non-finite
floats as the sentinel strings :data:`INF_SENTINEL` /
:data:`NEG_INF_SENTINEL` / :data:`NAN_SENTINEL` via
:func:`encode_nonfinite`, serializes with ``allow_nan=False`` (so a leak
is an error, not a malformed file), and decodes them back on load.  The
sentinel strings are reserved: a user string equal to one of them would
decode as the float.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from repro.auctions.allocation import MUCAAllocation
from repro.auctions.instance import Bid, MUCAInstance
from repro.exceptions import InvalidInstanceError
from repro.flows.allocation import Allocation, RoutedRequest
from repro.flows.instance import UFPInstance
from repro.flows.request import Request
from repro.graphs.graph import CapacitatedGraph

__all__ = [
    "SCHEMA_VERSION",
    "INF_SENTINEL",
    "NEG_INF_SENTINEL",
    "NAN_SENTINEL",
    "encode_nonfinite",
    "decode_nonfinite",
    "dumps_strict",
    "dumps_canonical",
    "loads_strict",
    "ufp_instance_to_dict",
    "ufp_instance_from_dict",
    "muca_instance_to_dict",
    "muca_instance_from_dict",
    "allocation_to_dict",
    "allocation_from_dict",
    "muca_allocation_to_dict",
    "muca_allocation_from_dict",
    "save_json",
    "load_json",
]

SCHEMA_VERSION = 1

#: Sentinel strings standing in for non-finite floats in serialized JSON.
INF_SENTINEL = "__repro_inf__"
NEG_INF_SENTINEL = "__repro_-inf__"
NAN_SENTINEL = "__repro_nan__"

_SENTINEL_TO_FLOAT = {
    INF_SENTINEL: math.inf,
    NEG_INF_SENTINEL: -math.inf,
    NAN_SENTINEL: math.nan,
}


def encode_nonfinite(value: Any) -> Any:
    """Recursively replace non-finite floats with their sentinel strings.

    Containers (dicts, lists, tuples) are rebuilt; everything else passes
    through untouched, so the result serializes with ``allow_nan=False``.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return NAN_SENTINEL
        if math.isinf(value):
            return INF_SENTINEL if value > 0 else NEG_INF_SENTINEL
        return value
    if isinstance(value, dict):
        return {k: encode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_nonfinite(v) for v in value]
    return value


def decode_nonfinite(value: Any) -> Any:
    """Invert :func:`encode_nonfinite` (sentinel strings become floats)."""
    if isinstance(value, str):
        return _SENTINEL_TO_FLOAT.get(value, value)
    if isinstance(value, dict):
        return {k: decode_nonfinite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_nonfinite(v) for v in value]
    return value


def dumps_strict(payload: Any, **kwargs: Any) -> str:
    """``json.dumps`` with non-finite floats sentinel-encoded and
    ``allow_nan=False`` — the output never contains the non-standard
    ``Infinity``/``NaN`` tokens."""
    return json.dumps(encode_nonfinite(payload), allow_nan=False, **kwargs)


def dumps_canonical(payload: Any) -> str:
    """Canonical strict JSON (sorted keys, minimal separators) — the form
    the scenario result store hashes, so hashes are layout-independent."""
    return dumps_strict(payload, sort_keys=True, separators=(",", ":"))


def loads_strict(text: str) -> Any:
    """``json.loads`` plus :func:`decode_nonfinite` on the result."""
    return decode_nonfinite(json.loads(text))


# ---------------------------------------------------------------------- #
# UFP instances
# ---------------------------------------------------------------------- #
def ufp_instance_to_dict(instance: UFPInstance) -> dict[str, Any]:
    """Serialize a UFP instance (graph, requests, metadata) to plain dicts."""
    graph = instance.graph
    return {
        "schema": SCHEMA_VERSION,
        "kind": "ufp_instance",
        "name": instance.name,
        "graph": {
            "num_vertices": graph.num_vertices,
            "directed": graph.directed,
            "edges": [[u, v, c] for u, v, c in graph.edge_list()],
            **(
                {"disabled_edges": sorted(graph.disabled_edges)}
                if graph.disabled_edges
                else {}
            ),
        },
        "requests": [
            {
                "source": r.source,
                "target": r.target,
                "demand": r.demand,
                "value": r.value,
                "name": r.name,
            }
            for r in instance.requests
        ],
        "metadata": _jsonable(instance.metadata),
    }


def ufp_instance_from_dict(payload: dict[str, Any]) -> UFPInstance:
    """Rebuild a UFP instance from :func:`ufp_instance_to_dict` output."""
    _check_schema(payload, "ufp_instance")
    graph_payload = payload["graph"]
    graph = CapacitatedGraph(
        int(graph_payload["num_vertices"]),
        [(int(u), int(v), float(c)) for u, v, c in graph_payload["edges"]],
        directed=bool(graph_payload["directed"]),
        disabled_edges=[int(e) for e in graph_payload.get("disabled_edges", ())],
    )
    requests = [
        Request(
            int(r["source"]),
            int(r["target"]),
            float(r["demand"]),
            float(r["value"]),
            name=str(r.get("name", "")),
        )
        for r in payload["requests"]
    ]
    return UFPInstance(
        graph, requests, name=str(payload.get("name", "")), metadata=payload.get("metadata", {})
    )


# ---------------------------------------------------------------------- #
# Auction instances
# ---------------------------------------------------------------------- #
def muca_instance_to_dict(instance: MUCAInstance) -> dict[str, Any]:
    """Serialize a multi-unit auction instance."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "muca_instance",
        "name": instance.name,
        "multiplicities": [float(c) for c in instance.multiplicities],
        "bids": [
            {"bundle": list(b.bundle), "value": b.value, "name": b.name}
            for b in instance.bids
        ],
        "metadata": _jsonable(instance.metadata),
    }


def muca_instance_from_dict(payload: dict[str, Any]) -> MUCAInstance:
    """Rebuild an auction instance from :func:`muca_instance_to_dict` output."""
    _check_schema(payload, "muca_instance")
    bids = [
        Bid(tuple(int(u) for u in b["bundle"]), float(b["value"]), name=str(b.get("name", "")))
        for b in payload["bids"]
    ]
    return MUCAInstance(
        np.asarray(payload["multiplicities"], dtype=np.float64),
        bids,
        name=str(payload.get("name", "")),
        metadata=payload.get("metadata", {}),
    )


# ---------------------------------------------------------------------- #
# Allocations
# ---------------------------------------------------------------------- #
def allocation_to_dict(allocation: Allocation) -> dict[str, Any]:
    """Serialize a UFP allocation together with the instance it solves."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "ufp_allocation",
        "algorithm": allocation.algorithm,
        "instance": ufp_instance_to_dict(allocation.instance),
        "routed": [
            {
                "request_index": item.request_index,
                "vertices": list(item.vertices),
                "copies": item.copies,
            }
            for item in allocation.routed
        ],
        "value": allocation.value,
    }


def allocation_from_dict(payload: dict[str, Any]) -> Allocation:
    """Rebuild a UFP allocation; paths are re-validated against the graph."""
    _check_schema(payload, "ufp_allocation")
    instance = ufp_instance_from_dict(payload["instance"])
    routed_payload = payload.get("routed", [])
    allocation = Allocation.from_paths(
        instance,
        [(int(item["request_index"]), item["vertices"]) for item in routed_payload],
        copies=[int(item.get("copies", 1)) for item in routed_payload],
        algorithm=str(payload.get("algorithm", "")),
    )
    return allocation


def muca_allocation_to_dict(allocation: MUCAAllocation) -> dict[str, Any]:
    """Serialize an auction allocation together with its instance."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "muca_allocation",
        "algorithm": allocation.algorithm,
        "instance": muca_instance_to_dict(allocation.instance),
        "winners": [int(w) for w in allocation.winners],
        "value": allocation.value,
    }


def muca_allocation_from_dict(payload: dict[str, Any]) -> MUCAAllocation:
    """Rebuild an auction allocation from its serialized form."""
    _check_schema(payload, "muca_allocation")
    instance = muca_instance_from_dict(payload["instance"])
    return MUCAAllocation.from_winners(
        instance, payload.get("winners", []), algorithm=str(payload.get("algorithm", ""))
    )


# ---------------------------------------------------------------------- #
# Files
# ---------------------------------------------------------------------- #
_SERIALIZERS = {
    UFPInstance: ufp_instance_to_dict,
    MUCAInstance: muca_instance_to_dict,
    Allocation: allocation_to_dict,
    MUCAAllocation: muca_allocation_to_dict,
}

_DESERIALIZERS = {
    "ufp_instance": ufp_instance_from_dict,
    "muca_instance": muca_instance_from_dict,
    "ufp_allocation": allocation_from_dict,
    "muca_allocation": muca_allocation_from_dict,
}


def save_json(obj: UFPInstance | MUCAInstance | Allocation | MUCAAllocation,
              path: str | Path) -> Path:
    """Write any supported object to ``path`` as pretty-printed JSON."""
    for cls, serializer in _SERIALIZERS.items():
        if isinstance(obj, cls):
            payload = serializer(obj)
            break
    else:
        raise TypeError(f"cannot serialize objects of type {type(obj)!r}")
    path = Path(path)
    path.write_text(dumps_strict(payload, indent=2, sort_keys=False))
    return path


def load_json(path: str | Path) -> UFPInstance | MUCAInstance | Allocation | MUCAAllocation:
    """Load any supported object previously written by :func:`save_json`."""
    payload = loads_strict(Path(path).read_text())
    kind = payload.get("kind")
    if kind not in _DESERIALIZERS:
        raise InvalidInstanceError(f"unknown or missing object kind {kind!r} in {path}")
    return _DESERIALIZERS[kind](payload)


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _check_schema(payload: dict[str, Any], expected_kind: str) -> None:
    if not isinstance(payload, dict):
        raise InvalidInstanceError("serialized payload must be a JSON object")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidInstanceError(
            f"unsupported schema version {schema!r} (this build reads {SCHEMA_VERSION})"
        )
    kind = payload.get("kind")
    if kind != expected_kind:
        raise InvalidInstanceError(f"expected a {expected_kind!r} payload, got {kind!r}")


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of metadata values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
