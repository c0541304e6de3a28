"""JSON serialization for computations, observer functions, and traces.

A practical post-mortem verifier needs its inputs to cross process
boundaries: a runtime dumps what happened, a checker loads it later.
This module defines a small, versioned JSON format for the library's
core objects.

Locations may be strings, integers, booleans, ``None``, or (nested)
tuples of those — everything the bundled workloads use.  Tuples are
encoded with an explicit tag so they survive the JSON round trip as
tuples (plain JSON arrays would come back as unhashable lists).

Format sketch::

    {"format": "repro/computation", "version": 1,
     "num_nodes": 3,
     "edges": [[0, 1]],
     "ops": [{"kind": "W", "loc": "x"}, {"kind": "R", "loc": "x"},
             {"kind": "N"}]}

Observer functions embed their computation; traces embed schedule and
read events.  All ``dump*`` functions return JSON-compatible dicts (use
``json.dumps`` on them); ``load*`` functions validate via the normal
constructors, so a corrupted file fails loudly with the library's own
exceptions.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.core.computation import Computation
from repro.core.observer import ObserverFunction
from repro.core.ops import N, Op, R, W, Location
from repro.dag.digraph import Dag
from repro.errors import InvalidObserverError, ReproError
from repro.runtime.scheduler import Schedule
from repro.runtime.trace import ExecutionTrace, PartialObserver, ReadEvent

__all__ = [
    "dump_computation",
    "load_computation",
    "dump_observer",
    "load_observer",
    "dump_partial_observer",
    "load_partial_observer",
    "dump_trace",
    "load_trace",
    "dumps",
    "loads",
    "parse_json",
    "document_loader",
    "load_document",
]

_FORMATS = {
    "repro/computation": 1,
    "repro/observer": 1,
    "repro/partial-observer": 1,
    "repro/trace": 1,
}


class FormatError(ReproError):
    """Raised when a JSON document does not match the expected format."""


# ---------------------------------------------------------------------------
# Locations
# ---------------------------------------------------------------------------


def _encode_location(loc: Location) -> Any:
    if isinstance(loc, tuple):
        return {"tuple": [_encode_location(x) for x in loc]}
    if isinstance(loc, (str, int, float, bool)) or loc is None:
        return loc
    raise FormatError(
        f"unsupported location type {type(loc).__name__!r}; use "
        "strings, numbers, booleans or tuples of those"
    )


def _decode_location(data: Any) -> Location:
    if isinstance(data, dict):
        if set(data) != {"tuple"}:
            raise FormatError(f"bad location encoding: {data!r}")
        return tuple(_decode_location(x) for x in data["tuple"])
    if not isinstance(data, (str, int, float, bool)) and data is not None:
        raise FormatError(f"bad location encoding: {data!r}")
    return data


def _decode_node(data: Any, comp: Computation) -> int:
    """A node id of ``comp``; observed values wrap it, ``None`` being ⊥."""
    if type(data) is not int or not 0 <= data < comp.num_nodes:
        raise FormatError(f"bad node id {data!r} for {comp.num_nodes} nodes")
    return data


# ---------------------------------------------------------------------------
# Computations
# ---------------------------------------------------------------------------


def _encode_op(op: Op) -> dict:
    if op.is_nop:
        return {"kind": "N"}
    return {"kind": op.kind, "loc": _encode_location(op.loc)}


def _decode_op(data: dict) -> Op:
    kind = data.get("kind")
    if kind == "N":
        return N
    if kind == "R":
        return R(_decode_location(data["loc"]))
    if kind == "W":
        return W(_decode_location(data["loc"]))
    raise FormatError(f"bad op encoding: {data!r}")


def _check_header(data: dict, fmt: str) -> None:
    if not isinstance(data, dict) or data.get("format") != fmt:
        raise FormatError(f"expected a {fmt!r} document")
    if data.get("version") != _FORMATS[fmt]:
        raise FormatError(
            f"unsupported {fmt} version {data.get('version')!r}"
        )


def dump_computation(comp: Computation) -> dict:
    """Encode a computation as a JSON-compatible dict."""
    return {
        "format": "repro/computation",
        "version": 1,
        "num_nodes": comp.num_nodes,
        "edges": sorted([u, v] for (u, v) in comp.dag.edges),
        "ops": [_encode_op(op) for op in comp.ops],
    }


def load_computation(data: dict) -> Computation:
    """Decode :func:`dump_computation` output (validates structure)."""
    _check_header(data, "repro/computation")
    ops = [_decode_op(o) for o in data["ops"]]
    if data["num_nodes"] != len(ops):  # before the dag allocates rows
        raise FormatError(f"num_nodes {data['num_nodes']!r} != {len(ops)} ops")
    dag = Dag(len(ops), [tuple(e) for e in data["edges"]])
    return Computation(dag, ops)


# ---------------------------------------------------------------------------
# Observer functions
# ---------------------------------------------------------------------------


def dump_observer(phi: ObserverFunction) -> dict:
    """Encode an observer function with its computation."""
    return {
        "format": "repro/observer",
        "version": 1,
        "computation": dump_computation(phi.computation),
        "rows": [
            {"loc": _encode_location(loc), "row": list(phi.row(loc))}
            for loc in phi.locations
        ],
    }


def load_observer(data: dict) -> ObserverFunction:
    """Decode :func:`dump_observer` output (re-validates Definition 2)."""
    _check_header(data, "repro/observer")
    comp = load_computation(data["computation"])
    mapping = {
        _decode_location(r["loc"]): tuple(
            None if v is None else _decode_node(v, comp) for v in r["row"]
        )
        for r in data["rows"]
    }
    return ObserverFunction(comp, mapping, validate=True)


# ---------------------------------------------------------------------------
# Partial observers and traces
# ---------------------------------------------------------------------------


def dump_partial_observer(po: PartialObserver) -> dict:
    """Encode a partial observer (trace constraints) with its computation."""
    return {
        "format": "repro/partial-observer",
        "version": 1,
        "computation": dump_computation(po.comp),
        "constraints": [
            {"loc": _encode_location(loc), "node": u, "value": v}
            for loc, u, v in sorted(
                po.entries(), key=lambda t: (repr(t[0]), t[1])
            )
        ],
    }


def load_partial_observer(data: dict) -> PartialObserver:
    """Decode :func:`dump_partial_observer` output."""
    _check_header(data, "repro/partial-observer")
    comp = load_computation(data["computation"])
    constraints: dict[Location, dict[int, int | None]] = {}
    for c in data["constraints"]:
        loc = _decode_location(c["loc"])
        value = None if c["value"] is None else _decode_node(c["value"], comp)
        constraints.setdefault(loc, {})[_decode_node(c["node"], comp)] = value
    return PartialObserver(comp, constraints)


def dump_trace(trace: ExecutionTrace) -> dict:
    """Encode an execution trace (computation + schedule + read events)."""
    return {
        "format": "repro/trace",
        "version": 1,
        "computation": dump_computation(trace.comp),
        "memory": trace.memory_name,
        "num_procs": trace.schedule.num_procs,
        "proc_of": list(trace.schedule.proc_of),
        "start_of": list(trace.schedule.start_of),
        "reads": [
            {"node": e.node, "loc": _encode_location(e.loc), "observed": e.observed}
            for e in trace.reads
        ],
    }


def load_trace(data: dict) -> ExecutionTrace:
    """Decode :func:`dump_trace` output.

    Re-validates the schedule, and the reads against Definition 2: a
    read that observes a non-write of its location, or a write it
    precedes, is a :class:`FormatError`.  The partial observer built to
    check that stays on the trace for the checkers to reuse."""
    _check_header(data, "repro/trace")
    comp = load_computation(data["computation"])
    proc_of, start_of = tuple(data["proc_of"]), tuple(data["start_of"])
    if any(type(x) is not int for x in proc_of + start_of):
        raise FormatError("schedule entries must be integers")
    sched = Schedule(comp, proc_of, start_of, data["num_procs"])
    trace = ExecutionTrace(comp, sched, data["memory"])
    for e in data["reads"]:
        node = _decode_node(e["node"], comp)
        observed = None if e["observed"] is None else _decode_node(e["observed"], comp)
        trace.reads.append(ReadEvent(node, _decode_location(e["loc"]), observed))
    try:
        trace.partial_observer()
    except InvalidObserverError as exc:
        raise FormatError(f"invalid read in trace: {exc}") from None
    return trace


# ---------------------------------------------------------------------------
# String-level convenience
# ---------------------------------------------------------------------------

_DUMPERS = {
    Computation: dump_computation,
    ObserverFunction: dump_observer,
    PartialObserver: dump_partial_observer,
    ExecutionTrace: dump_trace,
}

_LOADERS = {
    "repro/computation": load_computation,
    "repro/observer": load_observer,
    "repro/partial-observer": load_partial_observer,
    "repro/trace": load_trace,
}


def dumps(obj: Any, indent: int | None = 2) -> str:
    """Serialize any supported object to a JSON string."""
    for cls, dumper in _DUMPERS.items():
        if isinstance(obj, cls):
            return json.dumps(dumper(obj), indent=indent)
    raise FormatError(f"cannot serialize {type(obj).__name__!r}")


def parse_json(text: str) -> Any:
    """``json.loads``, with nesting too deep for the parser (which raises
    ``RecursionError``) reported as a :class:`FormatError`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None


def document_loader(data: Any) -> Callable[[dict], Any]:
    """The ``load_*`` function named by a document's format tag."""
    if not isinstance(data, dict) or "format" not in data:
        raise FormatError("not a repro document (missing format tag)")
    fmt = data["format"]
    loader = _LOADERS.get(fmt) if isinstance(fmt, str) else None
    if loader is None:
        raise FormatError(f"unknown format {fmt!r}")
    return loader


def load_document(data: Any) -> Any:
    """Load a parsed document through the loader its format tag names.

    Raises only :class:`FormatError`, one line naming the original error
    (a validation error, or a missing key or wrongly typed field)."""
    loader = document_loader(data)
    try:
        return loader(data)
    except FormatError:
        raise
    except RecursionError:
        raise FormatError("document nested too deeply") from None
    except (ReproError, LookupError, AttributeError, ArithmeticError, TypeError, ValueError) as exc:
        detail = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        raise FormatError(f"malformed {data['format']} document ({detail})") from None


def loads(text: str) -> Any:
    """Deserialize a JSON string produced by :func:`dumps` (dispatches on
    the embedded format tag)."""
    return load_document(parse_json(text))
