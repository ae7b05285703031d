"""The pluggable filter zoo: registry, spec parsing, construction, wire.

One place that knows every relay-filter implementation the reproduction
ships.  Each backend is registered as a :class:`FilterBackendSpec`
keyed by a short name, selectable end-to-end via a *filter spec*
string — ``"name"`` or ``"name:param=value,param=value"`` — accepted by
``--filter`` on the CLI, ``ExperimentSpec.filter_spec``, and
``BsubConfig.filter_spec``:

========== ===========================================================
``dict``    single TCBF on the dict counter store
``array``   single TCBF on the dense array store (the default relay)
``multi``   Sec. VI-C/VI-D optimal multi-TCBF collection; geometry from
            the Eq. 9–10 planner (``mem=``/``keys=`` params) or an
            explicit ``threshold=``/``max=`` override
``retouched`` Retouched TCBF (Donnet et al.): ``clear=3+17+42`` lists
            the bit positions scrubbed after every mutation
``countbf`` countBF-style 2D counting grid (``rows=`` param)
========== ===========================================================

The conformance harness (``tests/core/test_filter_contract.py``)
parametrizes over :func:`registered_backends`, so registering a new
backend here automatically subjects it to the full contract suite, the
registry-driven micro-benchmarks, and the ``BENCH_filters.json``
accuracy/space matrix — adding filter #6 is a one-file diff plus
one registry entry.

The zoo also defines a tagged wire envelope (:func:`encode_filter` /
:func:`decode_filter`) so any registered filter round-trips through
bytes using the Sec. VI-C compact forms underneath.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .allocation import TCBFCollection, plan_allocation
from .countbf import DEFAULT_ROWS, CountBF2D
from .hashing import DEFAULT_SEED, HashFamily
from .retouched import RetouchedTCBF
from .serialization import decode_tcbf, encode_tcbf
from .tcbf import DEFAULT_INITIAL_VALUE, TemporalCountingBloomFilter

__all__ = [
    "FilterBackendSpec",
    "FILTER_BACKENDS",
    "registered_backends",
    "parse_filter_spec",
    "make_relay_filter",
    "load_keys",
    "encode_filter",
    "decode_filter",
]

#: Default Eq. 9–10 planner inputs for ``multi`` when the spec does not
#: override them: the paper's 38-key Twitter universe under a bound
#: that lands on a handful of filters.
DEFAULT_MULTI_KEYS = 38.0
DEFAULT_MULTI_MEM_BYTES = 384.0


@dataclass(frozen=True)
class FilterBackendSpec:
    """One registered relay-filter implementation.

    Attributes
    ----------
    name:
        Registry key (the spec string's leading token).
    summary:
        One-line description for docs and ``--help``.
    params:
        Accepted spec parameters as ``(name, doc)`` pairs.
    factory:
        ``factory(params, **geometry) -> relay filter``; geometry
        kwargs are ``family, num_bits, num_hashes, seed, initial_value,
        decay_factor, time, backend``.
    """

    name: str
    summary: str
    params: Tuple[Tuple[str, str], ...]
    factory: Callable


def _geometry(
    family: Optional[HashFamily],
    num_bits: int,
    num_hashes: int,
    seed: int,
) -> Tuple[HashFamily, int, int, int]:
    """Resolve (family, m, k, seed), letting an explicit family win."""
    if family is not None:
        return family, family.num_bits, family.num_hashes, family.seed
    return HashFamily(num_hashes, num_bits, seed), num_bits, num_hashes, seed


def _int_param(params: Dict[str, str], name: str, default: int) -> int:
    try:
        return int(params.get(name, default))
    except ValueError as exc:
        raise ValueError(
            f"filter spec parameter {name}={params[name]!r} is not an integer"
        ) from exc


def _float_param(params: Dict[str, str], name: str, default: float) -> float:
    try:
        return float(params.get(name, default))
    except ValueError as exc:
        raise ValueError(
            f"filter spec parameter {name}={params[name]!r} is not a number"
        ) from exc


def _make_single(backend_name):
    def factory(
        params, *, family, num_bits, num_hashes, seed,
        initial_value, decay_factor, time, backend,
    ):
        family, _, _, _ = _geometry(family, num_bits, num_hashes, seed)
        return TemporalCountingBloomFilter(
            family=family,
            initial_value=initial_value,
            decay_factor=decay_factor,
            time=time,
            backend=backend_name,
        )

    return factory


def _make_multi(
    params, *, family, num_bits, num_hashes, seed,
    initial_value, decay_factor, time, backend,
):
    family, num_bits, num_hashes, seed = _geometry(
        family, num_bits, num_hashes, seed
    )
    max_filters: Optional[int]
    if "threshold" in params:
        threshold = _float_param(params, "threshold", 0.0)
        max_filters = (
            _int_param(params, "max", 0) if "max" in params else None
        )
    else:
        plan = plan_allocation(
            _float_param(params, "keys", DEFAULT_MULTI_KEYS),
            _float_param(params, "mem", DEFAULT_MULTI_MEM_BYTES),
            num_bits=num_bits,
            num_hashes=num_hashes,
        )
        threshold = plan.fill_ratio_threshold
        max_filters = plan.num_filters
    collection = TCBFCollection(
        fill_ratio_threshold=threshold,
        family=family,
        initial_value=initial_value,
        decay_factor=decay_factor,
        max_filters=max_filters,
        backend=backend,
    )
    collection.advance(time)
    return collection


def _make_retouched(
    params, *, family, num_bits, num_hashes, seed,
    initial_value, decay_factor, time, backend,
):
    family, num_bits, _, _ = _geometry(family, num_bits, num_hashes, seed)
    cleared = ()
    raw = params.get("clear", "")
    if raw:
        try:
            cleared = tuple(int(b) for b in raw.split("+"))
        except ValueError as exc:
            raise ValueError(
                f"retouched clear list {raw!r} must be '+'-separated bit "
                "indices, e.g. clear=3+17+42"
            ) from exc
    return RetouchedTCBF(
        family=family,
        initial_value=initial_value,
        decay_factor=decay_factor,
        time=time,
        backend=backend,
        cleared_bits=cleared,
    )


def _make_countbf(
    params, *, family, num_bits, num_hashes, seed,
    initial_value, decay_factor, time, backend,
):
    _, num_bits, num_hashes, seed = _geometry(family, num_bits, num_hashes, seed)
    return CountBF2D(
        num_bits=num_bits,
        num_hashes=num_hashes,
        rows=_int_param(params, "rows", DEFAULT_ROWS),
        seed=seed,
        initial_value=initial_value,
        decay_factor=decay_factor,
        time=time,
        backend=backend,
    )


#: The registry, in the order backends are benchmarked and tested.
FILTER_BACKENDS: Dict[str, FilterBackendSpec] = {
    spec.name: spec
    for spec in (
        FilterBackendSpec(
            name="dict",
            summary="single TCBF, sparse dict counter store",
            params=(),
            factory=_make_single("dict"),
        ),
        FilterBackendSpec(
            name="array",
            summary="single TCBF, dense array counter store (default)",
            params=(),
            factory=_make_single("array"),
        ),
        FilterBackendSpec(
            name="multi",
            summary="Sec. VI-C/VI-D optimal multi-TCBF collection (Eq. 9-10)",
            params=(
                ("keys", "planner: expected total keys n (default 38)"),
                ("mem", "planner: memory bound M_max in bytes (default 384)"),
                ("threshold", "override: explicit fill-ratio threshold F_t"),
                ("max", "override: max filters h (with threshold=)"),
            ),
            factory=_make_multi,
        ),
        FilterBackendSpec(
            name="retouched",
            summary="Retouched TCBF: permanently cleared bit positions",
            params=(
                ("clear", "'+'-separated bit indices to clear, e.g. 3+17"),
            ),
            factory=_make_retouched,
        ),
        FilterBackendSpec(
            name="countbf",
            summary="countBF-style 2D counting grid (row x column hashes)",
            params=(("rows", f"grid rows (default {DEFAULT_ROWS})"),),
            factory=_make_countbf,
        ),
    )
}


def registered_backends() -> Tuple[str, ...]:
    """The registered filter-backend names, in registry order."""
    return tuple(FILTER_BACKENDS)


def parse_filter_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"name:k=v,k=v"`` into (name, params), validating both.

    Raises
    ------
    ValueError
        For an unknown backend name, a malformed parameter token, or a
        parameter the backend does not accept.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"filter spec must be a non-empty string, got {spec!r}")
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in FILTER_BACKENDS:
        raise ValueError(
            f"unknown filter backend {name!r}; registered backends: "
            f"{', '.join(FILTER_BACKENDS)}"
        )
    params: Dict[str, str] = {}
    if rest.strip():
        for token in rest.split(","):
            key, sep, value = token.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(
                    f"malformed filter spec parameter {token!r}; expected "
                    "name=value"
                )
            params[key] = value
    allowed = {p for p, _ in FILTER_BACKENDS[name].params}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(
            f"filter backend {name!r} does not accept parameter(s) "
            f"{', '.join(unknown)}"
            + (f"; accepted: {', '.join(sorted(allowed))}" if allowed else "")
        )
    return name, params


def make_relay_filter(
    spec: str,
    *,
    family: Optional[HashFamily] = None,
    num_bits: int = 256,
    num_hashes: int = 4,
    seed: int = DEFAULT_SEED,
    initial_value: float = DEFAULT_INITIAL_VALUE,
    decay_factor: float = 0.0,
    time: float = 0.0,
    backend: Optional[str] = None,
):
    """Construct the relay filter a spec string describes.

    When *family* is given it wins over ``num_bits``/``num_hashes``/
    ``seed`` so every node in a network builds merge-compatible filters
    from the shared family; countBF derives its salted row/column
    families from the same geometry.
    """
    name, params = parse_filter_spec(spec)
    return FILTER_BACKENDS[name].factory(
        params,
        family=family,
        num_bits=num_bits,
        num_hashes=num_hashes,
        seed=seed,
        initial_value=initial_value,
        decay_factor=decay_factor,
        time=time,
        backend=backend,
    )


def load_keys(relay, keys) -> None:
    """Announce *keys* into any zoo relay, whatever its type.

    Prefers the duck-typed ``announce`` hook (countBF, exact relay),
    then a collection's dedup-aware ``insert_all``, then the TCBF
    ``with_keys`` merge (which works even on merged filters).
    """
    keys = list(keys)
    if not keys:
        return
    announce = getattr(relay, "announce", None)
    if announce is not None:
        announce(keys)
        return
    insert_all = getattr(relay, "insert_all", None)
    if insert_all is not None:
        insert_all(keys)
        return
    relay.with_keys(keys)


# -- tagged wire envelope ---------------------------------------------------

_ZOO_TCBF = 0x10        # one Sec. VI-C TCBF frame
_ZOO_COLLECTION = 0x11  # threshold + max + N length-prefixed TCBF frames
_ZOO_RETOUCHED = 0x12   # cleared-bit list + one TCBF frame
_ZOO_COUNTBF = 0x13     # grid geometry + quantised set cells

_COLLECTION_HEADER = struct.Struct("<fHH")  # threshold, max (0 = None), count
_RETOUCHED_HEADER = struct.Struct("<H")     # number of cleared bits
_COUNTBF_HEADER = struct.Struct("<HHfH")    # rows, cols, scale, set cells
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def encode_filter(filt) -> bytes:
    """Encode any registered relay filter as one tagged frame."""
    if isinstance(filt, RetouchedTCBF):
        cleared = sorted(filt.cleared_bits)
        body = _RETOUCHED_HEADER.pack(len(cleared))
        body += b"".join(_U16.pack(b) for b in cleared)
        return bytes([_ZOO_RETOUCHED]) + body + encode_tcbf(filt, counters="full")
    if isinstance(filt, TemporalCountingBloomFilter):
        return bytes([_ZOO_TCBF]) + encode_tcbf(filt, counters="full")
    if isinstance(filt, TCBFCollection):
        frames = [encode_tcbf(f, counters="full") for f in filt.filters]
        body = _COLLECTION_HEADER.pack(
            filt.fill_ratio_threshold, filt.max_filters or 0, len(frames)
        )
        for frame in frames:
            body += _U32.pack(len(frame)) + frame
        return bytes([_ZOO_COLLECTION]) + body
    if isinstance(filt, CountBF2D):
        items = filt.items()
        peak = max((v for _, v in items), default=filt.initial_value)
        scale = max(peak, filt.initial_value, 1e-9) / 255.0
        body = _COUNTBF_HEADER.pack(filt.rows, filt.cols, scale, len(items))
        for cell, value in items:
            body += _U16.pack(cell)
            body += bytes([max(1, min(255, round(value / scale)))])
        return bytes([_ZOO_COUNTBF]) + body
    raise TypeError(
        f"cannot encode unregistered filter type {type(filt).__name__}"
    )


def decode_filter(
    data: bytes,
    *,
    family: Optional[HashFamily] = None,
    num_bits: int = 256,
    num_hashes: int = 4,
    seed: int = DEFAULT_SEED,
    initial_value: float = DEFAULT_INITIAL_VALUE,
    decay_factor: float = 0.0,
    time: float = 0.0,
    backend: Optional[str] = None,
):
    """Decode :func:`encode_filter` output back into a live filter.

    Decoded filters are merge/query operands (the TCBF-based ones are
    marked *merged*, per Sec. IV-A).  Raises ``ValueError`` on any
    malformed input.
    """
    if not data:
        raise ValueError("empty filter frame")
    family, num_bits, num_hashes, seed = _geometry(
        family, num_bits, num_hashes, seed
    )
    tag, body = data[0], data[1:]
    if tag == _ZOO_TCBF:
        return decode_tcbf(
            body, family, initial_value, decay_factor, time, backend
        )
    if tag == _ZOO_RETOUCHED:
        return _decode_retouched(
            body, family, initial_value, decay_factor, time, backend
        )
    if tag == _ZOO_COLLECTION:
        return _decode_collection(
            body, family, initial_value, decay_factor, time, backend
        )
    if tag == _ZOO_COUNTBF:
        return _decode_countbf(
            body, num_hashes, seed, initial_value, decay_factor, time, backend
        )
    raise ValueError(f"unknown filter zoo wire tag {tag:#x}")


def _decode_retouched(
    body, family, initial_value, decay_factor, time, backend
):
    if len(body) < _RETOUCHED_HEADER.size:
        raise ValueError("truncated retouched frame: missing cleared count")
    (count,) = _RETOUCHED_HEADER.unpack_from(body)
    offset = _RETOUCHED_HEADER.size
    needed = offset + count * _U16.size
    if len(body) < needed:
        raise ValueError(
            f"truncated retouched frame: {count} cleared bits need "
            f"{needed} bytes, got {len(body)}"
        )
    cleared = [
        _U16.unpack_from(body, offset + i * _U16.size)[0] for i in range(count)
    ]
    inner = decode_tcbf(
        body[needed:], family, initial_value, decay_factor, time, backend
    )
    filt = RetouchedTCBF(
        family=family,
        initial_value=initial_value,
        decay_factor=decay_factor,
        time=time,
        backend=backend,
        cleared_bits=cleared,
    )
    filt._store = inner._store
    filt._merged = True
    filt._scrub()
    return filt


def _decode_collection(
    body, family, initial_value, decay_factor, time, backend
):
    if len(body) < _COLLECTION_HEADER.size:
        raise ValueError("truncated collection frame: missing header")
    threshold, max_raw, count = _COLLECTION_HEADER.unpack_from(body)
    offset = _COLLECTION_HEADER.size
    filters = []
    for _ in range(count):
        if len(body) < offset + _U32.size:
            raise ValueError("truncated collection frame: missing frame length")
        (length,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        if len(body) < offset + length:
            raise ValueError(
                f"truncated collection frame: constituent needs {length} "
                f"bytes, got {len(body) - offset}"
            )
        filters.append(
            decode_tcbf(
                body[offset : offset + length],
                family,
                initial_value,
                decay_factor,
                time,
                backend,
            )
        )
        offset += length
    if offset != len(body):
        raise ValueError(
            f"collection frame has {len(body) - offset} trailing bytes"
        )
    collection = TCBFCollection(
        fill_ratio_threshold=threshold,
        family=family,
        initial_value=initial_value,
        decay_factor=decay_factor,
        max_filters=max_raw or None,
        backend=backend,
    )
    collection.advance(time)
    if filters:
        collection._filters = filters
    return collection


def _decode_countbf(
    body, num_hashes, seed, initial_value, decay_factor, time, backend
):
    if len(body) < _COUNTBF_HEADER.size:
        raise ValueError("truncated countBF frame: missing header")
    rows, cols, scale, count = _COUNTBF_HEADER.unpack_from(body)
    if not scale > 0.0:
        raise ValueError(f"countBF counter scale must be positive, got {scale}")
    offset = _COUNTBF_HEADER.size
    needed = offset + count * (_U16.size + 1)
    if len(body) != needed:
        raise ValueError(
            f"malformed countBF frame: {count} cells need exactly "
            f"{needed} bytes, got {len(body)}"
        )
    filt = CountBF2D(
        num_bits=rows * cols,
        num_hashes=num_hashes,
        rows=rows,
        seed=seed,
        initial_value=initial_value,
        decay_factor=decay_factor,
        time=time,
        backend=backend,
    )
    if filt.cols != cols:
        raise ValueError(
            f"inconsistent countBF geometry on the wire: {rows}x{cols}"
        )
    store = filt._store
    num_cells = filt.num_cells
    for i in range(count):
        cell = _U16.unpack_from(body, offset + i * (_U16.size + 1))[0]
        if cell >= num_cells:
            raise ValueError(
                f"countBF cell {cell} out of range for {rows}x{cols} grid"
            )
        raw = body[offset + i * (_U16.size + 1) + _U16.size]
        store.set(cell, raw * scale)
    filt.version += 1
    return filt
