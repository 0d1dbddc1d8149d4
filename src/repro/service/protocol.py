"""Request/response schema for the capacity-planning service.

One place defines how JSON becomes typed scenario objects
(:class:`~repro.core.configs.CRParameters`,
:class:`~repro.core.configs.CompressionSpec`,
:class:`~repro.simulation.simulator.SimConfig`) and how results go back
out.  Two properties matter beyond ordinary parsing:

* **Strictness** — unknown keys, wrong types and out-of-range values all
  raise :class:`ProtocolError` (the server maps it to HTTP 400).  The
  dataclasses' own ``__post_init__`` validation is reused rather than
  duplicated; their ``ValueError`` messages pass through verbatim.
  ``engine`` is not a wire field: every request runs on the production
  (``"fast"``) engine, and ``{"engine": ...}`` is an unknown key.
* **Determinism** — :func:`canonical_dumps` renders every response with
  sorted keys, compact separators and ``repr``-exact floats, so a
  coalesced or batch-fused response is **byte-identical** to what a
  serial, single-request evaluation of the same config would produce.
  That is the service-level restatement of the pool's determinism
  contract, and the equivalence tests assert it byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Mapping

from ..core.configs import (
    HOST_GZIP1,
    NDP_GZIP1,
    NO_COMPRESSION,
    CompressionSpec,
    CRParameters,
)
from ..core.model import ModelResult
from ..simulation.simulator import SimConfig, default_work
from ..simulation.stats import result_to_json

__all__ = [
    "ProtocolError",
    "COMPRESSION_PRESETS",
    "DEFAULT_PRIORITY",
    "PRIORITY_MAX",
    "PRIORITY_MIN",
    "QoS",
    "canonical_dumps",
    "compression_from_json",
    "config_from_json",
    "model_result_to_json",
    "params_from_json",
    "qos_from_json",
    "result_to_json",
    "sweep_rows_from_json",
]


class ProtocolError(ValueError):
    """Malformed request body (the server answers HTTP 400 with this)."""


#: Named compression engines clients may reference instead of spelling
#: out rates: the paper's host-side and NDP-side gzip(1) engines.
COMPRESSION_PRESETS: dict[str, CompressionSpec] = {
    "none": NO_COMPRESSION,
    "host-gzip1": HOST_GZIP1,
    "ndp-gzip1": NDP_GZIP1,
}

_PARAM_FIELDS = {f.name for f in dataclasses.fields(CRParameters)}
_COMPRESSION_FIELDS = {f.name for f in dataclasses.fields(CompressionSpec)}
#: SimConfig fields a request may set directly (``params``/``compression``
#: arrive as nested objects; ``trace`` is a live in-process object and can
#: never cross the wire; ``engine`` is always the production engine;
#: ``work`` competes with ``work_mttis``).
_CONFIG_FIELDS = {
    f.name for f in dataclasses.fields(SimConfig)
} - {"params", "compression", "trace", "engine"}


def _require_mapping(obj: Any, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _reject_unknown(body: Mapping, allowed: set[str], what: str) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}"
        )


#: The JSON kind each scalar field annotation admits.  The dataclasses
#: alone would take ``true`` for a number (a ``bool`` is an ``int``) and
#: ``5.5`` for an integer, and ``float()`` takes strings: ``"seed": "5"``,
#: ``5.5`` or ``true`` would each parse, to a different cache key from
#: ``5``.  A bool is never a number here.
_KINDS = {
    float: ("a number", (int, float)),
    int: ("an integer", int),
    bool: ("a boolean", bool),
    str: ("a string", str),
}


def _is_a(value: Any, kind: type) -> bool:
    return isinstance(value, _KINDS[kind][1]) and (
        isinstance(value, bool) is (kind is bool)
    )


def _scalar_fields(cls: type) -> dict[str, tuple[type, bool]]:
    """Each scalar field of dataclass ``cls`` -> (its annotated type,
    whether ``null`` is allowed), read from the annotations; nested
    objects and sequences are checked where they are parsed."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        hint, args = hints[f.name], typing.get_args(hints[f.name])
        nullable = type(None) in args
        if nullable:
            (hint,) = [a for a in args if a is not type(None)]
        if hint in _KINDS:
            out[f.name] = (hint, nullable)
    return out


_PARAM_SCALARS = _scalar_fields(CRParameters)
_COMPRESSION_SCALARS = _scalar_fields(CompressionSpec)
#: ``work_mttis`` is a wire-only field; its ``null`` means "unset".
_CONFIG_SCALARS = {**_scalar_fields(SimConfig), "work_mttis": (float, True)}


def _check_scalars(
    body: Mapping, fields: dict[str, tuple[type, bool]], what: str
) -> None:
    """Reject a known scalar field whose JSON type is wrong."""
    for name, value in body.items():
        kind, nullable = fields.get(name, (None, False))
        if kind is None or (value is None and nullable) or _is_a(value, kind):
            continue
        raise ProtocolError(
            f"{what}{name} must be {_KINDS[kind][0]}, got {value!r:.60}"
        )


#: Priority classes: 0 is most urgent, 9 least; requests default to the
#: middle so explicit "interactive" and "batch" traffic can sort around
#: unmarked requests in both directions.
PRIORITY_MIN = 0
PRIORITY_MAX = 9
DEFAULT_PRIORITY = 4


@dataclasses.dataclass(frozen=True)
class QoS:
    """Scheduling hints carried by a request, outside the scenario.

    Deliberately **not** part of :class:`SimConfig`: a deadline or a
    priority changes *when* (and whether) a request computes, never what
    the computation returns — so QoS must stay out of the cache key and
    the byte-identity contract.

    ``deadline_s`` is a relative latency budget in seconds (wire field
    ``deadline_ms``); the scheduler turns it into an absolute deadline
    at admission.  ``None`` means "no deadline".
    """

    deadline_s: float | None = None
    priority: int = DEFAULT_PRIORITY


def qos_from_json(body: Any) -> tuple[QoS, Any]:
    """Split the QoS fields off a request body, strictly validated.

    Returns ``(qos, rest)`` where ``rest`` is the body with
    ``deadline_ms``/``priority`` removed (the scenario parsers reject
    unknown keys, so the split must happen first).  Non-mapping bodies
    pass through untouched — the scenario parser owns that error.
    """
    if not isinstance(body, Mapping):
        return QoS(), body
    rest = dict(body)
    deadline_ms = rest.pop("deadline_ms", None)
    priority = rest.pop("priority", DEFAULT_PRIORITY)
    deadline_s: float | None = None
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError(
                f"deadline_ms must be a number of milliseconds, got {deadline_ms!r}"
            )
        deadline_s = float(deadline_ms) / 1e3
        if not deadline_s > 0:
            raise ProtocolError(f"deadline_ms must be > 0: {deadline_ms!r}")
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError(f"priority must be an integer, got {priority!r}")
    if not PRIORITY_MIN <= priority <= PRIORITY_MAX:
        raise ProtocolError(
            f"priority must be in [{PRIORITY_MIN}, {PRIORITY_MAX}]: {priority}"
        )
    return QoS(deadline_s=deadline_s, priority=priority), rest


def params_from_json(body: Any) -> CRParameters:
    """``{"mtti": ..., "checkpoint_size": ...}`` -> :class:`CRParameters`.

    Every field is optional (paper Table 4 defaults apply); unknown keys
    and dataclass-level validation failures raise :class:`ProtocolError`.
    """
    if body is None:
        return CRParameters()
    body = _require_mapping(body, "params")
    _reject_unknown(body, _PARAM_FIELDS, "params")
    _check_scalars(body, _PARAM_SCALARS, "params.")
    try:
        return CRParameters(**body)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid params: {exc}") from exc


def compression_from_json(body: Any) -> CompressionSpec:
    """A preset name, ``null`` (no compression) or an explicit spec."""
    if body is None:
        return NO_COMPRESSION
    if isinstance(body, str):
        try:
            return COMPRESSION_PRESETS[body]
        except KeyError:
            raise ProtocolError(
                f"unknown compression preset {body!r}; "
                f"one of {sorted(COMPRESSION_PRESETS)}"
            ) from None
    body = _require_mapping(body, "compression")
    _reject_unknown(body, _COMPRESSION_FIELDS, "compression")
    _check_scalars(body, _COMPRESSION_SCALARS, "compression.")
    try:
        return CompressionSpec(**body)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid compression: {exc}") from exc


def config_from_json(body: Any) -> SimConfig:
    """One simulate-request body -> a fully validated :class:`SimConfig`.

    Recognized keys: every :class:`SimConfig` field except ``trace`` and
    ``engine`` (``params`` and ``compression`` as nested objects / preset
    names), plus ``work_mttis`` — a work target expressed in mean-times-
    to-interrupt (mutually exclusive with ``work``; default 50 MTTIs,
    small enough for interactive latency, large enough for a stable
    estimate).  The config always runs on the ``"fast"`` engine.
    """
    body = dict(_require_mapping(body, "request"))
    _reject_unknown(
        body, _CONFIG_FIELDS | {"params", "compression", "work_mttis"}, "request"
    )
    _check_scalars(body, _CONFIG_SCALARS, "")
    params = params_from_json(body.pop("params", None))
    compression = compression_from_json(body.pop("compression", None))
    work_mttis = body.pop("work_mttis", None)
    if work_mttis is not None:
        if "work" in body:
            raise ProtocolError("give either work or work_mttis, not both")
        try:
            body["work"] = default_work(params, float(work_mttis))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid work_mttis: {exc}") from exc
    body.setdefault("work", default_work(params, 50.0))
    times = body.get("failure_times")
    if times is not None:
        if not isinstance(times, (list, tuple)) or not all(
            _is_a(t, float) for t in times
        ):
            raise ProtocolError(
                f"failure_times must be a list of numbers, got {times!r:.60}"
            )
        body["failure_times"] = tuple(float(t) for t in times)
    try:
        return SimConfig(params=params, compression=compression, engine="fast", **body)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid request: {exc}") from exc


#: The sweep body's flags, read by the server (``detail``, ``stream``).
_SWEEP_FLAGS = {"detail": (bool, False), "stream": (bool, False)}


def sweep_rows_from_json(body: Any) -> tuple[list[SimConfig], int, int]:
    """A sweep-request body -> flat per-(cell, seed) config rows.

    Schema: ``{"configs": [<simulate body>, ...], "seeds": [0, 1, ...]}``
    plus optional ``"detail"`` and ``"stream"`` flags (consumed by the
    server: include full per-seed results in each cell / answer as
    chunked NDJSON, one line per completed cell) — an explicit list of
    cells, each replicated per seed (any ``seed``
    on a cell is overwritten by the seed axis, exactly like
    :func:`~repro.simulation.grid.simulate_grid`).  Returns
    ``(rows, n_cells, n_seeds)`` with rows in cell-major order.
    """
    body = _require_mapping(body, "sweep request")
    _reject_unknown(body, {"configs", "seeds", *_SWEEP_FLAGS}, "sweep")
    _check_scalars(body, _SWEEP_FLAGS, "")
    cells_raw = body.get("configs")
    if not isinstance(cells_raw, (list, tuple)) or not cells_raw:
        raise ProtocolError("sweep needs a non-empty 'configs' list")
    seeds = body.get("seeds", [0])
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ProtocolError("sweep 'seeds' must be a non-empty list")
    if not all(_is_a(s, int) for s in seeds):
        raise ProtocolError(f"seeds must be a list of integers, got {seeds!r:.60}")
    cells = [config_from_json(c) for c in cells_raw]
    rows = [dataclasses.replace(cfg, seed=s) for cfg in cells for s in seeds]
    return rows, len(cells), len(seeds)


# -- responses --------------------------------------------------------------------


def model_result_to_json(result: ModelResult) -> dict:
    """A :class:`ModelResult` as a plain JSON-able dict (inputs echoed)."""
    return {
        "config": result.config,
        "efficiency": result.efficiency,
        "slowdown": result.slowdown,
        "breakdown": dataclasses.asdict(result.breakdown),
        "tau": result.tau,
        "ratio": result.ratio,
        "io_interval": result.io_interval,
        "params": dataclasses.asdict(result.params),
        "compression": dataclasses.asdict(result.compression),
    }


def canonical_dumps(payload: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, compact, repr-exact floats.

    Python's ``json`` renders floats via ``repr`` (shortest round-trip
    form), so two equal results serialize to identical bytes on any
    platform — the property the byte-identity acceptance tests pin.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=True
    ).encode("utf-8")
