"""On-disk columnar MOFT storage: a versioned, magic-tagged, mmap-able format.

The MOFT is a flat columnar fact table, but until this module its only
interchange format was CSV — every world load re-parsed 250k ``float()``
calls.  The columnar format persists the ``(oid, t, x, y)`` columns plus
the per-object time-sorted row index as raw little-endian array blobs
(``.npy``-style: fixed dtypes, no pickling), so :func:`load_moft` is an
``mmap`` + a handful of ``np.frombuffer`` views instead of a parse:

* **Preamble** (16 bytes): magic ``MOFTCOL\\x00``, ``u16`` format
  version, ``u16`` flags (reserved, must be 0), ``u32`` header length.
* **Header**: UTF-8 JSON — table name, row/object counts, oid encoding,
  and a section directory mapping section name to
  ``{offset, nbytes, dtype, count}``.
* **Sections**, each aligned to :data:`ALIGNMENT` bytes:

  ========================  ========  =====================================
  section                   dtype     contents
  ========================  ========  =====================================
  ``t`` / ``x`` / ``y``     ``<f8``   the sample columns, insertion order
  ``oid_codes``             ``<u4``   per-row object code (first-appearance
                                      interning order)
  ``oid_values``            varies    code -> object id; ``<i8`` array when
                                      every oid is an ``int``, else a UTF-8
                                      JSON list of ``str``/``int`` values
  ``index_rows``            ``<i8``   row indices grouped by object, each
                                      group sorted by time (CSR values)
  ``index_times``           ``<f8``   ``t`` gathered in ``index_rows`` order
  ``index_offsets``         ``<i8``   CSR group boundaries, ``objects + 1``
                                      entries
  ========================  ========  =====================================

Loading installs zero-copy views: the ``(t, x, y)`` columns become
``np.frombuffer`` views over the mapped file and the CSR index pre-fills
the table's per-object sorted-order cache (:attr:`MOFT._order`) and its
segment table (:meth:`MOFT.segment_index`), so ``history``/``position``/
``trajectory_sample`` skip their argsort and whole-table scans skip
their ``lexsort``.  The same image layout doubles as the wire format of the
zero-copy process shards (:mod:`repro.parallel.shm`): a shared-memory
block holds one index-less image and shard descriptors address row
ranges ``[start, stop)`` inside it.

Every malformed input raises :class:`~repro.errors.MoftStorageError`
before any unchecked array read — never a numpy traceback.
"""

from __future__ import annotations

import json
import mmap as _mmap
import struct
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MoftStorageError
from repro.mo.moft import MOFT, SegmentIndex

#: Leading magic bytes of every columnar MOFT file.
MAGIC = b"MOFTCOL\x00"

#: Current (and only) format version.
FORMAT_VERSION = 1

#: Section alignment in bytes — mmap'd float columns land on cache-line
#: (and SIMD-load) friendly boundaries.
ALIGNMENT = 64

#: Preamble layout: magic, version (u16), flags (u16), header length (u32).
PREAMBLE = struct.Struct("<8sHHI")

#: Pinned little-endian section dtypes — the format is byte-identical
#: across platforms; loaders never honor native byte order.
DTYPE_F8 = "<f8"
DTYPE_U4 = "<u4"
DTYPE_I8 = "<i8"

_FIXED_SECTION_DTYPES = {
    "t": DTYPE_F8,
    "x": DTYPE_F8,
    "y": DTYPE_F8,
    "oid_codes": DTYPE_U4,
    "index_rows": DTYPE_I8,
    "index_times": DTYPE_F8,
    "index_offsets": DTYPE_I8,
}


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _intern_oids(
    oid_col: np.ndarray,
) -> Tuple[np.ndarray, List[Hashable]]:
    """First-appearance interning: per-row codes plus the value list."""
    codes = np.empty(oid_col.shape[0], dtype=np.uint32)
    values: List[Hashable] = []
    table: Dict[Hashable, int] = {}
    for i, oid in enumerate(oid_col.tolist()):
        code = table.get(oid)
        if code is None:
            code = len(values)
            table[oid] = code
            values.append(oid)
        codes[i] = code
    return codes, values


def _encode_oid_values(values: Sequence[Hashable]) -> Tuple[str, bytes, str]:
    """Encode the code -> oid table; returns (oid_kind, payload, dtype).

    ``int64`` when every oid is a plain ``int`` (bools excluded — they
    would decode as ints); otherwise a JSON list, which restricts oids to
    ``str``/``int`` so the decode round-trips types faithfully.
    """
    if all(type(v) is int for v in values):
        arr = np.asarray(values, dtype=np.int64)
        if values and (arr.tolist() != list(values)):  # pragma: no cover
            raise MoftStorageError(
                "object ids overflow int64; the columnar format cannot "
                "encode them"
            )
        return "int64", arr.astype(DTYPE_I8).tobytes(), DTYPE_I8
    for v in values:
        if type(v) is not str and type(v) is not int:
            raise MoftStorageError(
                f"object id {v!r} has type {type(v).__name__}; the "
                f"columnar format encodes str and int ids only"
            )
    payload = json.dumps(list(values), ensure_ascii=False).encode("utf-8")
    return "json", payload, "bytes"


def serialize_columns(
    name: str,
    oid_col: np.ndarray,
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    include_index: bool = True,
) -> bytes:
    """Build one columnar image from raw columns.

    The shared serializer behind :func:`save_moft` (file images, with
    the CSR index) and the shared-memory shard blocks of
    :mod:`repro.parallel.shm` (index-less images).  Raises
    :class:`MoftStorageError` on unencodable object ids.
    """
    n = int(t.shape[0])
    codes, values = _intern_oids(oid_col)
    oid_kind, oid_payload, oid_dtype = _encode_oid_values(values)

    sections: List[Tuple[str, bytes, str, int]] = [
        ("t", np.ascontiguousarray(t, dtype=DTYPE_F8).tobytes(), DTYPE_F8, n),
        ("x", np.ascontiguousarray(x, dtype=DTYPE_F8).tobytes(), DTYPE_F8, n),
        ("y", np.ascontiguousarray(y, dtype=DTYPE_F8).tobytes(), DTYPE_F8, n),
        ("oid_codes", codes.astype(DTYPE_U4).tobytes(), DTYPE_U4, n),
        ("oid_values", oid_payload, oid_dtype, len(values)),
    ]
    if include_index:
        if n:
            # Primary key: object code; secondary: time; tertiary: row
            # index.  (oid, t) uniqueness makes per-object times distinct,
            # so each CSR group is exactly the stable time argsort the
            # MOFT's _object_order cache would compute.
            t64 = np.ascontiguousarray(t, dtype=np.float64)
            order = np.lexsort((np.arange(n), t64, codes))
            counts = np.bincount(codes, minlength=len(values))
        else:
            order = np.empty(0, dtype=np.int64)
            counts = np.zeros(len(values), dtype=np.int64)
        offsets = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        index_times = (
            np.ascontiguousarray(t, dtype=np.float64)[order]
            if n
            else np.empty(0, dtype=np.float64)
        )
        sections.extend(
            [
                (
                    "index_rows",
                    order.astype(DTYPE_I8).tobytes(),
                    DTYPE_I8,
                    n,
                ),
                (
                    "index_times",
                    index_times.astype(DTYPE_F8).tobytes(),
                    DTYPE_F8,
                    n,
                ),
                (
                    "index_offsets",
                    offsets.astype(DTYPE_I8).tobytes(),
                    DTYPE_I8,
                    len(values) + 1,
                ),
            ]
        )

    # Two-pass header sizing: section offsets depend on the header
    # length, which depends on the offsets' JSON width.  Iterate until
    # the layout is a fixed point (second pass always converges — digit
    # widths can only grow the header, and padding absorbs small growth).
    def _layout(header_len: int) -> Tuple[Dict[str, Dict[str, object]], int]:
        directory: Dict[str, Dict[str, object]] = {}
        cursor = _align(PREAMBLE.size + header_len)
        for sec_name, payload, dtype, count in sections:
            directory[sec_name] = {
                "offset": cursor,
                "nbytes": len(payload),
                "dtype": dtype,
                "count": count,
            }
            cursor = _align(cursor + len(payload))
        return directory, cursor

    def _header_bytes(directory: Dict[str, Dict[str, object]]) -> bytes:
        return json.dumps(
            {
                "name": name,
                "rows": n,
                "objects": len(values),
                "oid_kind": oid_kind,
                "index": include_index,
                "sections": directory,
            },
            ensure_ascii=False,
            sort_keys=True,
        ).encode("utf-8")

    header = _header_bytes(_layout(0)[0])
    for _ in range(4):
        directory, total = _layout(len(header))
        rendered = _header_bytes(directory)
        if len(rendered) == len(header):
            header = rendered
            break
        header = rendered
    else:  # pragma: no cover - layout always converges in two passes
        raise MoftStorageError("columnar header layout failed to converge")

    image = bytearray(total)
    PREAMBLE.pack_into(image, 0, MAGIC, FORMAT_VERSION, 0, len(header))
    image[PREAMBLE.size:PREAMBLE.size + len(header)] = header
    for sec_name, payload, _, _ in sections:
        offset = int(directory[sec_name]["offset"])
        image[offset:offset + len(payload)] = payload
    return bytes(image)


def serialize_moft(moft: MOFT, include_index: bool = True) -> bytes:
    """Serialize a whole MOFT into one columnar image."""
    t, x, y = moft.as_arrays()
    return serialize_columns(
        moft.name, moft.oid_column(), t, x, y, include_index=include_index
    )


class MoftImage:
    """A parsed, validated columnar image: header fields plus column views.

    The arrays are zero-copy ``np.frombuffer`` views over the backing
    buffer (bytes, shared memory, or an ``mmap``); the image keeps the
    buffer referenced so views stay valid for its lifetime.
    """

    __slots__ = (
        "name",
        "rows",
        "objects",
        "oid_kind",
        "has_index",
        "t",
        "x",
        "y",
        "oid_codes",
        "oid_values",
        "index_rows",
        "index_times",
        "index_offsets",
        "buffer",
    )

    def __init__(self, **fields: object) -> None:
        for key, value in fields.items():
            setattr(self, key, value)

    def oid_value_array(self) -> np.ndarray:
        """The code -> oid table as an object array (for fancy decode)."""
        out = np.empty(len(self.oid_values), dtype=object)
        out[:] = self.oid_values
        return out


def _read_section(
    buffer, header: dict, name: str, total: int, source: str
) -> Tuple[np.ndarray, dict]:
    sections = header["sections"]
    if name not in sections:
        raise MoftStorageError(
            f"{source}: columnar header lacks section {name!r}"
        )
    sec = sections[name]
    try:
        offset = int(sec["offset"])
        nbytes = int(sec["nbytes"])
        dtype = str(sec["dtype"])
        count = int(sec["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MoftStorageError(
            f"{source}: malformed section record for {name!r}: {sec!r}"
        ) from exc
    if offset < 0 or nbytes < 0 or count < 0 or offset + nbytes > total:
        raise MoftStorageError(
            f"{source}: section {name!r} spans bytes "
            f"[{offset}, {offset + nbytes}) of a {total}-byte image — "
            f"truncated or corrupt file"
        )
    if name == "oid_values":
        return np.empty(0, dtype=object), sec  # decoded separately
    expected = _FIXED_SECTION_DTYPES[name]
    if dtype != expected:
        raise MoftStorageError(
            f"{source}: section {name!r} has dtype {dtype!r}, expected "
            f"{expected!r} (the format pins little-endian dtypes)"
        )
    itemsize = np.dtype(dtype).itemsize
    if nbytes != count * itemsize:
        raise MoftStorageError(
            f"{source}: section {name!r} holds {nbytes} bytes for "
            f"{count} x {itemsize}-byte items"
        )
    array = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
    return array, sec


def open_image(buffer, source: str = "<memory>") -> MoftImage:
    """Parse and validate one columnar image over any buffer.

    ``buffer`` is anything ``np.frombuffer`` accepts — ``bytes``, an
    ``mmap``, or a shared-memory view.  Every structural defect raises
    :class:`MoftStorageError`; no section is read before its bounds are
    checked against the buffer length.
    """
    try:
        total = len(buffer)
    except TypeError:  # pragma: no cover - exotic buffer types
        total = memoryview(buffer).nbytes
    if total < PREAMBLE.size:
        raise MoftStorageError(
            f"{source}: {total} bytes is shorter than the {PREAMBLE.size}-"
            f"byte preamble — not a columnar MOFT file"
        )
    magic, version, flags, header_len = PREAMBLE.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise MoftStorageError(
            f"{source}: bad magic {bytes(magic)!r} (expected {MAGIC!r}) — "
            f"not a columnar MOFT file"
        )
    if version != FORMAT_VERSION:
        raise MoftStorageError(
            f"{source}: columnar format version {version} is not "
            f"supported (this reader understands version "
            f"{FORMAT_VERSION})"
        )
    if flags != 0:
        raise MoftStorageError(
            f"{source}: reserved flag bits set ({flags:#06x}); refusing "
            f"to guess their meaning"
        )
    if PREAMBLE.size + header_len > total:
        raise MoftStorageError(
            f"{source}: header claims {header_len} bytes but only "
            f"{total - PREAMBLE.size} follow the preamble — truncated file"
        )
    try:
        header = json.loads(
            bytes(memoryview(buffer)[PREAMBLE.size:PREAMBLE.size + header_len])
            .decode("utf-8")
        )
    except (ValueError, UnicodeDecodeError) as exc:
        raise MoftStorageError(
            f"{source}: columnar header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(header, dict) or not isinstance(
        header.get("sections"), dict
    ):
        raise MoftStorageError(
            f"{source}: columnar header lacks a section directory"
        )
    try:
        rows = int(header["rows"])
        objects = int(header["objects"])
        name = str(header["name"])
        oid_kind = str(header["oid_kind"])
        has_index = bool(header["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MoftStorageError(
            f"{source}: columnar header is missing required fields: {exc}"
        ) from exc
    if rows < 0 or objects < 0 or (rows and not objects):
        raise MoftStorageError(
            f"{source}: inconsistent counts (rows={rows}, objects={objects})"
        )

    t, _ = _read_section(buffer, header, "t", total, source)
    x, _ = _read_section(buffer, header, "x", total, source)
    y, _ = _read_section(buffer, header, "y", total, source)
    codes, _ = _read_section(buffer, header, "oid_codes", total, source)
    for col_name, col in (("t", t), ("x", x), ("y", y), ("oid_codes", codes)):
        if col.shape[0] != rows:
            raise MoftStorageError(
                f"{source}: section {col_name!r} holds {col.shape[0]} "
                f"values for {rows} rows"
            )

    _, values_sec = _read_section(buffer, header, "oid_values", total, source)
    v_off, v_nbytes = int(values_sec["offset"]), int(values_sec["nbytes"])
    raw_values = bytes(memoryview(buffer)[v_off:v_off + v_nbytes])
    if oid_kind == "int64":
        if v_nbytes != objects * 8 or str(values_sec["dtype"]) != DTYPE_I8:
            raise MoftStorageError(
                f"{source}: int64 oid table holds {v_nbytes} bytes for "
                f"{objects} objects"
            )
        oid_values: List[Hashable] = (
            np.frombuffer(raw_values, dtype=DTYPE_I8).tolist()
        )
    elif oid_kind == "json":
        try:
            oid_values = json.loads(raw_values.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise MoftStorageError(
                f"{source}: JSON oid table is corrupt: {exc}"
            ) from exc
        if not isinstance(oid_values, list) or len(oid_values) != objects:
            raise MoftStorageError(
                f"{source}: oid table decodes to "
                f"{len(oid_values) if isinstance(oid_values, list) else 'non-list'} "
                f"entries for {objects} objects"
            )
    else:
        raise MoftStorageError(
            f"{source}: unknown oid encoding {oid_kind!r}"
        )
    if rows and codes.size and int(codes.max()) >= objects:
        raise MoftStorageError(
            f"{source}: oid code {int(codes.max())} out of range for "
            f"{objects} objects — corrupt oid_codes section"
        )

    index_rows = index_times = index_offsets = None
    if has_index:
        index_rows, _ = _read_section(
            buffer, header, "index_rows", total, source
        )
        index_times, _ = _read_section(
            buffer, header, "index_times", total, source
        )
        index_offsets, _ = _read_section(
            buffer, header, "index_offsets", total, source
        )
        if (
            index_rows.shape[0] != rows
            or index_times.shape[0] != rows
            or index_offsets.shape[0] != objects + 1
        ):
            raise MoftStorageError(
                f"{source}: per-object index sections disagree with the "
                f"row/object counts"
            )
        if rows:
            if (
                int(index_offsets[0]) != 0
                or int(index_offsets[-1]) != rows
                or bool(np.any(np.diff(index_offsets) < 0))
            ):
                raise MoftStorageError(
                    f"{source}: index_offsets is not a monotone cover of "
                    f"{rows} rows — corrupt index"
                )
            if (
                int(index_rows.min()) < 0
                or int(index_rows.max()) >= rows
            ):
                raise MoftStorageError(
                    f"{source}: index_rows points outside the table — "
                    f"corrupt index"
                )
    return MoftImage(
        name=name,
        rows=rows,
        objects=objects,
        oid_kind=oid_kind,
        has_index=has_index,
        t=t,
        x=x,
        y=y,
        oid_codes=codes,
        oid_values=oid_values,
        index_rows=index_rows,
        index_times=index_times,
        index_offsets=index_offsets,
        buffer=buffer,
    )


def table_from_image(
    image: MoftImage,
    start: Optional[int] = None,
    stop: Optional[int] = None,
) -> MOFT:
    """Materialize a MOFT over an image's columns (zero row copies).

    ``start``/``stop`` select a row range — the shard-descriptor path of
    :mod:`repro.parallel.shm`.  A full-range load of an indexed image
    also pre-fills the table's per-object sorted-order cache with views
    over the CSR index, so per-object access needs no argsort.
    """
    lo = 0 if start is None else int(start)
    hi = image.rows if stop is None else int(stop)
    if not (0 <= lo <= hi <= image.rows):
        raise MoftStorageError(
            f"row range [{lo}, {hi}) out of bounds for {image.rows} rows"
        )
    values = image.oid_value_array()
    oid_col = (
        values[image.oid_codes[lo:hi]]
        if hi > lo
        else np.empty(0, dtype=object)
    )
    moft = MOFT.from_columns(
        oid_col,
        image.t[lo:hi],
        image.x[lo:hi],
        image.y[lo:hi],
        name=image.name,
        validate=False,
    )
    full = lo == 0 and hi == image.rows
    if full and image.has_index and image.rows:
        offsets = image.index_offsets
        for code, oid in enumerate(image.oid_values):
            o0, o1 = int(offsets[code]), int(offsets[code + 1])
            if o1 > o0:
                moft._order[oid] = (
                    image.index_times[o0:o1],
                    image.index_rows[o0:o1],
                )
        # The CSR index *is* the segment table's (object, time) order.
        if bool(np.all(offsets[1:] > offsets[:-1])):
            moft._segments = SegmentIndex(
                values, image.index_rows, offsets
            )
    return moft


def save_moft(
    moft: MOFT,
    path: Union[str, Path],
    include_index: bool = True,
) -> int:
    """Write a MOFT as one columnar file; returns the bytes written."""
    image = serialize_moft(moft, include_index=include_index)
    with open(path, "wb") as handle:
        handle.write(image)
    return len(image)


def load_moft(
    path: Union[str, Path],
    mmap: bool = True,
) -> MOFT:
    """Load a columnar MOFT file, by ``mmap`` (default) or a full read.

    The mmap'd columns are read-only views over the page cache; the
    returned table keeps the mapping referenced for as long as any of
    its arrays live.  Appending to a loaded table works — the column
    arrays are replaced by concatenation, never written in place.
    """
    source = str(path)
    with open(path, "rb") as handle:
        if mmap:
            try:
                buffer: object = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                raise MoftStorageError(
                    f"{source}: cannot mmap: {exc}"
                ) from exc
        else:
            buffer = handle.read()
    image = open_image(buffer, source=source)
    return table_from_image(image)


def is_columnar_file(path: Union[str, Path]) -> bool:
    """True when ``path`` starts with the columnar magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


__all__ = [
    "ALIGNMENT",
    "FORMAT_VERSION",
    "MAGIC",
    "MoftImage",
    "is_columnar_file",
    "load_moft",
    "open_image",
    "save_moft",
    "serialize_columns",
    "serialize_moft",
    "table_from_image",
]
