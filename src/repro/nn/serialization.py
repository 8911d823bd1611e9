"""Model checkpointing and wire payloads: flat parameters with metadata.

Two serialization surfaces live here:

* :func:`save_checkpoint` / :func:`load_checkpoint` — on-disk npz
  checkpoints with enough metadata (architecture spec, parameter count)
  to catch loading a checkpoint into the wrong model — the failure mode
  that silently corrupts FL experiments.
* :func:`encode_payload` / :func:`decode_payload` — the self-describing
  binary frame the live engine ships over sockets.  Decoding a torn or
  corrupted buffer raises a *typed* error (:class:`TruncatedPayloadError`
  / :class:`PayloadError`) instead of returning garbage arrays.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.nn.models import ClassifierModel

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "PayloadError",
    "TruncatedPayloadError",
    "encode_payload",
    "decode_payload",
]

FORMAT_VERSION = 1

#: 4-byte magic prefix of every wire payload.
PAYLOAD_MAGIC = b"RPAY"

#: Bump when the frame layout changes incompatibly.
PAYLOAD_VERSION = 1


class PayloadError(ValueError):
    """A wire payload is malformed (bad magic/version/header/checksum)."""


class TruncatedPayloadError(PayloadError):
    """A wire payload ends before its declared length (torn write/read)."""


def _dtype_token(dtype: np.dtype) -> str:
    """Endianness-explicit dtype token (``<f8``), stable across hosts."""
    return np.dtype(dtype).newbyteorder("<").str


def encode_payload(
    meta: Mapping,
    arrays: Mapping[str, np.ndarray],
) -> bytes:
    """Pack ``meta`` (JSON-serializable) and named arrays into one frame.

    Layout::

        magic(4) | version(1) | header_len(u32 LE) | header JSON |
        raw array bytes (little-endian, C order, in header order) |
        crc32(u32 LE) over everything before it

    The header carries ``meta`` plus each array's name/dtype/shape, so a
    frame is decodable with no out-of-band schema.
    """
    specs = []
    chunks = []
    for name, arr in arrays.items():
        a = np.asarray(arr)
        if a.dtype == object:
            raise PayloadError(f"array {name!r} has object dtype")
        le = a.astype(a.dtype.newbyteorder("<"), copy=False)
        specs.append(
            {"name": str(name), "dtype": _dtype_token(a.dtype), "shape": list(a.shape)}
        )
        chunks.append(le.tobytes(order="C"))
    header = json.dumps(
        {"meta": jsonable_meta(meta), "arrays": specs}, separators=(",", ":")
    ).encode("utf-8")
    body = b"".join(
        [
            PAYLOAD_MAGIC,
            bytes([PAYLOAD_VERSION]),
            len(header).to_bytes(4, "little"),
            header,
            *chunks,
        ]
    )
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def jsonable_meta(meta: Mapping) -> Dict:
    """Validate ``meta`` is JSON-serializable, returning a plain dict."""
    try:
        return json.loads(json.dumps(dict(meta)))
    except (TypeError, ValueError) as exc:
        raise PayloadError(f"payload meta is not JSON-serializable: {exc}") from exc


def decode_payload(buf: bytes) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`encode_payload`; returns ``(meta, arrays)``.

    Raises :class:`TruncatedPayloadError` if ``buf`` stops short of any
    declared length, :class:`PayloadError` on bad magic, version, header,
    or checksum.  Returned arrays are fresh native-endian copies.
    """
    view = memoryview(buf)
    if len(view) < len(PAYLOAD_MAGIC) + 1 + 4:
        raise TruncatedPayloadError(
            f"payload too short for frame prelude ({len(view)} bytes)"
        )
    if bytes(view[:4]) != PAYLOAD_MAGIC:
        raise PayloadError(f"bad payload magic {bytes(view[:4])!r}")
    version = view[4]
    if version != PAYLOAD_VERSION:
        raise PayloadError(f"unsupported payload version {version}")
    header_len = int.from_bytes(view[5:9], "little")
    offset = 9
    if len(view) < offset + header_len:
        raise TruncatedPayloadError("payload truncated inside header")
    try:
        header = json.loads(bytes(view[offset : offset + header_len]).decode("utf-8"))
        specs = header["arrays"]
        meta = header["meta"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise PayloadError(f"malformed payload header: {exc}") from exc
    offset += header_len
    arrays: Dict[str, np.ndarray] = {}
    for spec in specs:
        try:
            name = spec["name"]
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(s) for s in spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PayloadError(f"malformed array spec {spec!r}: {exc}") from exc
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        if len(view) < offset + nbytes:
            raise TruncatedPayloadError(
                f"payload truncated inside array {name!r} "
                f"(need {nbytes} bytes at offset {offset}, have {len(view) - offset})"
            )
        raw = np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
        arrays[name] = raw.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
        offset += nbytes
    if len(view) < offset + 4:
        raise TruncatedPayloadError("payload truncated before checksum")
    if len(view) > offset + 4:
        raise PayloadError(f"{len(view) - offset - 4} trailing bytes after checksum")
    stored = int.from_bytes(view[offset : offset + 4], "little")
    actual = zlib.crc32(view[:offset]) & 0xFFFFFFFF
    if stored != actual:
        raise PayloadError(
            f"payload checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )
    return dict(meta), arrays


def save_checkpoint(
    model: ClassifierModel,
    path: str | Path | BinaryIO,
    spec: Optional[Mapping] = None,
    w: Optional[np.ndarray] = None,
) -> Path | BinaryIO:
    """Write ``w`` (default: the model's current parameters) to ``path``.

    ``spec`` is an arbitrary JSON-serializable architecture description
    (e.g. the kwargs passed to :func:`repro.nn.models.build_model`); it is
    stored verbatim and returned on load.  ``path`` may also be an open
    binary file, which is written to and returned as is.
    """
    to_file = hasattr(path, "write")
    if not to_file:
        path = Path(path)
    weights = np.asarray(w if w is not None else model.get_params(), dtype=float)
    if weights.size != model.num_params:
        raise ValueError(
            f"weight vector has {weights.size} entries, model has {model.num_params}"
        )
    meta = {
        "format": FORMAT_VERSION,
        "num_params": int(weights.size),
        "num_classes": model.num_classes,
        "l2_reg": model.l2_reg,
        "spec": dict(spec) if spec is not None else {},
    }
    np.savez(path, weights=weights, meta=np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8))
    if to_file or path.suffix == ".npz":
        return path
    return path.with_suffix(path.suffix + ".npz")


def load_checkpoint(
    path: str | Path,
    model: Optional[ClassifierModel] = None,
) -> Tuple[np.ndarray, dict]:
    """Read ``(weights, meta)``; if ``model`` is given, validate and load.

    Raises if the checkpoint's parameter count or class count disagrees
    with the target model.
    """
    with np.load(Path(path)) as data:
        weights = np.asarray(data["weights"], dtype=float)
        meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
    if meta.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: {meta.get('format')!r}")
    if int(meta["num_params"]) != weights.size:
        raise ValueError("checkpoint metadata disagrees with stored weights")
    if model is not None:
        if model.num_params != weights.size:
            raise ValueError(
                f"checkpoint has {weights.size} params, model {model.num_params}"
            )
        if model.num_classes != int(meta["num_classes"]):
            raise ValueError("class-count mismatch")
        model.set_params(weights)
    return weights, meta
