"""Point cloud frame type and frame / corpus I/O.

Frames store coordinates, intensity, and optional planar velocity as
read-only float64 arrays and are immutable after construction; pipeline
stages always return new frames. Three on-disk formats are supported:

* CSV with header ``x,y,z,intensity`` or ``x,y,z,intensity,vx,vy``
  (UTF-8, ``.`` decimal separator, values written with full 17-digit
  round-trip precision).
* Packed little-endian float32 x5 per point (x, y, z, intensity, ring;
  the ring index is discarded), the layout used by nuScenes LiDAR dumps.
* Compact native binary: 8-byte magic ``L2RPCF01``, a little-endian u64
  point count, then float64 x6 per point (x, y, z, intensity, vx, vy).

A corpus is a directory of frame files plus a ``manifest.json`` giving the
format (a key of ``FORMATS``: ``csv`` or ``bin``) and listing
``{"frame_id", "timestamp", "path"}`` per frame, each path inside the corpus
directory. Frame ids name the frame files, so ``check_frame_ids`` holds them
to plain, unique file names.

Each rule about a file lives in one function, so a bad file fails alike
wherever it is read, with a ``FormatError`` naming it: ``read_text`` decodes
UTF-8, ``read_json_object`` reads JSON, ``json_number`` checks a JSON number
and ``_frame`` builds every frame read. ``write_json`` writes all JSON.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError, ParseError, SchemaError

COMPACT_MAGIC = b"L2RPCF01"
_NUSCENES_RECORD = 20  # five little-endian float32 per point


@dataclass(frozen=True)
class PointCloudFrame:
    """One timestamped sweep. ``velocity`` is (N, 2) planar (vx, vy) or None;
    absent velocity means zero, which is how plain LiDAR frames arrive."""

    frame_id: str
    timestamp: float
    xyz: np.ndarray
    intensity: np.ndarray
    velocity: np.ndarray | None = None

    def __post_init__(self):
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        if xyz.size == 0:
            xyz = xyz.reshape(0, 3)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {xyz.shape}")
        inten = np.ascontiguousarray(self.intensity, dtype=np.float64).reshape(-1)
        if len(inten) != len(xyz):
            raise ValueError(f"{len(inten)} intensities for {len(xyz)} points")
        if not np.isfinite(xyz).all() or not np.isfinite(inten).all():
            raise ValueError(f"frame {self.frame_id!r} contains non-finite values")
        if (inten < 0).any():
            raise ValueError(f"frame {self.frame_id!r} has negative intensity")
        vel = self.velocity
        if vel is not None:
            vel = np.ascontiguousarray(vel, dtype=np.float64)
            if vel.size == 0:
                vel = vel.reshape(0, 2)
            if vel.shape != (len(xyz), 2):
                raise ValueError(f"velocity must be (N, 2), got {vel.shape}")
            if not np.isfinite(vel).all():
                raise ValueError(f"frame {self.frame_id!r} has non-finite velocity")
            vel.setflags(write=False)
        xyz.setflags(write=False)
        inten.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", inten)
        object.__setattr__(self, "velocity", vel)

    @property
    def n_points(self) -> int:
        return len(self.xyz)

    def velocity_or_zero(self) -> np.ndarray:
        if self.velocity is not None:
            return self.velocity
        return np.zeros((self.n_points, 2))

    def select(self, indices: np.ndarray) -> "PointCloudFrame":
        idx = np.asarray(indices, dtype=np.intp)
        vel = None if self.velocity is None else self.velocity[idx]
        return PointCloudFrame(self.frame_id, self.timestamp,
                               self.xyz[idx], self.intensity[idx], vel)


def _frame(path: Path, frame_id: str | None, timestamp: float, table: np.ndarray,
           velocity: bool) -> PointCloudFrame:
    """The frame of a table read from ``path``: x, y, z, intensity, then vx, vy
    when ``velocity``. ``frame_id`` defaults to the file's stem, and values
    the frame refuses raise SchemaError naming the file."""
    try:
        return PointCloudFrame(path.stem if frame_id is None else frame_id, timestamp,
                               table[:, 0:3], table[:, 3],
                               table[:, 4:6] if velocity else None)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV


_CSV_WIDTH = {"x,y,z,intensity": 4, "x,y,z,intensity,vx,vy": 6}
_CSV_ROWS = 1024  # rows formatted per block


def write_frame_csv(frame: PointCloudFrame, path: str | Path) -> None:
    header, columns = "x,y,z,intensity", [frame.xyz, frame.intensity[:, None]]
    if frame.velocity is not None:
        header, columns = header + ",vx,vy", columns + [frame.velocity]
    lines = [header]
    # a block of rows at a time, so that the whole frame never exists as
    # Python floats at once
    for lo in range(0, frame.n_points, _CSV_ROWS):
        block = np.hstack([c[lo:lo + _CSV_ROWS] for c in columns]).tolist()
        lines += [",".join(map(repr, row)) for row in block]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_frame_csv(path: str | Path, frame_id: str | None = None,
                   timestamp: float = 0.0) -> PointCloudFrame:
    path = Path(path)
    data = _parse_csv_table(path)
    if data is None:
        data = _parse_csv_lines(path)
    return _frame(path, frame_id, timestamp, data, velocity=data.shape[1] == 6)


def _parse_csv_table(path: Path) -> np.ndarray | None:
    """The (N, 4 or 6) body parsed from the open file in one pass, or None
    when the header, the text or a row is not as expected."""
    try:
        with open(path, encoding="utf-8") as fh:
            width = _CSV_WIDTH.get(fh.readline().strip())
            if width is None:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no rows
                data = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                                  ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    if data.size == 0:
        return np.empty((0, width))
    return data if data.shape[1] == width else None


def _parse_csv_lines(path: Path) -> np.ndarray:
    """Line-by-line parse that names the cause of a failure and its line."""
    lines = read_text(path).splitlines()
    header = lines[0].strip() if lines else ""
    width = _CSV_WIDTH.get(header)
    if width is None:
        raise SchemaError(f"{path}: expected a header of "
                          f"{' or '.join(map(repr, _CSV_WIDTH))}, got {header!r}")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        cols = raw.split(",")
        if len(cols) != width:
            raise ParseError(f"{path}: expected {width} columns, got {len(cols)}",
                             line=lineno)
        try:
            rows.append([float(c) for c in cols])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from exc
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), width)


# ---------------------------------------------------------------------------
# nuScenes-style binary


def read_frame_nuscenes_bin(path: str | Path, frame_id: str | None = None,
                            timestamp: float = 0.0) -> PointCloudFrame:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) % _NUSCENES_RECORD != 0:
        raise FormatError(f"{path}: size {len(blob)} is not a multiple of "
                          f"{_NUSCENES_RECORD} bytes")
    raw = np.frombuffer(blob, dtype="<f4").reshape(-1, 5).astype(np.float64)
    return _frame(path, frame_id, timestamp, raw, velocity=False)


# ---------------------------------------------------------------------------
# compact native binary


def write_frame_bin(frame: PointCloudFrame, path: str | Path) -> None:
    vel = frame.velocity_or_zero()
    table = np.column_stack([frame.xyz, frame.intensity, vel]).astype("<f8")
    payload = COMPACT_MAGIC + struct.pack("<Q", frame.n_points) + table.tobytes(order="C")
    atomic_write_bytes(path, payload)


def read_frame_bin(path: str | Path, frame_id: str | None = None,
                   timestamp: float = 0.0) -> PointCloudFrame:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 16 or blob[:8] != COMPACT_MAGIC:
        raise FormatError(f"{path}: bad or missing magic header")
    (count,) = struct.unpack("<Q", blob[8:16])
    expected = 16 + count * 48
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {count} points, "
                          f"got {len(blob)}")
    table = np.frombuffer(blob, dtype="<f8", offset=16).reshape(count, 6)
    return _frame(path, frame_id, timestamp, table, velocity=True)


# ---------------------------------------------------------------------------
# corpora


# corpus format -> (frame reader, frame writer); the format is the file suffix
FORMATS = {"csv": (read_frame_csv, write_frame_csv), "bin": (read_frame_bin, write_frame_bin)}


def check_frame_ids(ids: Sequence[str]) -> None:
    """Raise ValueError naming the first id that is not a plain, unique file
    name: empty, holding a path separator ('/' or '\\') or NUL, or equal to
    an id before it."""
    seen = set()
    for fid in ids:
        if not fid or any(ch in fid for ch in "/\\\0"):
            raise ValueError(f"frame id {fid!r} is not a plain file name")
        if fid in seen:
            raise ValueError(f"frame id {fid!r} repeats")
        seen.add(fid)


def write_corpus(dirpath: str | Path, frames: Sequence[PointCloudFrame],
                 fmt: str = "csv", extra: dict | None = None) -> dict:
    """Write frames plus a manifest; returns the manifest dict. Ids that
    ``check_frame_ids`` refuses raise ValueError before any file is written."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}")
    check_frame_ids([frame.frame_id for frame in frames])
    write = FORMATS[fmt][1]
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    for frame in frames:
        name = f"{frame.frame_id}.{fmt}"
        write(frame, dirpath / name)
        entries.append({"frame_id": frame.frame_id,
                        "timestamp": frame.timestamp, "path": name})
    manifest = {"format": fmt, "frames": entries}
    if extra:
        manifest.update(extra)
    write_json(dirpath / "manifest.json", manifest)
    return manifest


def load_corpus(dirpath: str | Path) -> list[PointCloudFrame]:
    dirpath = Path(dirpath)
    manifest_path = dirpath / "manifest.json"
    manifest = read_json_object(manifest_path)
    fmt, entries = manifest.get("format"), manifest.get("frames")
    if not isinstance(fmt, str) or fmt not in FORMATS:
        raise SchemaError(f"{manifest_path}: format must be one of "
                          f"{', '.join(map(repr, FORMATS))}, got {fmt!r}")
    if not isinstance(entries, list):
        raise SchemaError(f"{manifest_path}: 'frames' must be a list, "
                          f"got {type(entries).__name__}")
    root = dirpath.resolve()
    fields = []
    for i, entry in enumerate(entries):
        try:
            fid, ts, rel = entry["frame_id"], entry["timestamp"], entry["path"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"{manifest_path}: bad frame entry {entry!r}") from exc
        if not isinstance(fid, str):
            raise SchemaError(f"{manifest_path}: frame {i}: frame_id must be a string, "
                              f"got {fid!r}")
        ts = json_number(ts, f"{manifest_path}: frame {i}: timestamp")
        if (not isinstance(rel, str) or Path(rel).is_absolute()
                or not (dirpath / rel).resolve().is_relative_to(root)):
            raise SchemaError(f"{manifest_path}: frame path {rel!r} is not inside {dirpath}")
        fields.append((fid, float(ts), dirpath / rel))
    try:
        check_frame_ids([fid for fid, _, _ in fields])
    except ValueError as exc:
        raise SchemaError(f"{manifest_path}: {exc}") from exc
    read = FORMATS[fmt][0]
    return [read(path, frame_id=fid, timestamp=ts) for fid, ts, path in fields]


# ---------------------------------------------------------------------------
# text and JSON documents


def read_text(path: str | Path) -> str:
    """The whole of ``path`` decoded as UTF-8. Bytes that are not UTF-8 raise
    ParseError naming the file; a missing file raises the OSError that
    names it."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}; expected UTF-8 text") from exc


def read_json_object(path: str | Path) -> dict:
    """Decode ``path`` as UTF-8 JSON holding an object. Text that is not
    UTF-8, not JSON, or holds an integer past Python's digit limit raises
    ParseError naming the file, and any other top-level value SchemaError;
    a missing file raises the OSError that names it."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def json_number(value, what: str, integer: bool = False) -> int | float:
    """``value`` if it is a JSON number fit for a field named ``what``, else
    SchemaError. An integer field takes an int; a float field an int or a
    float of finite float64 magnitude. JSON true and false load as bool,
    which is an int subclass, and are refused."""
    kinds = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SchemaError(f"{what} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    # fails for NaN, the infinities and integers that overflow float()
    if not integer and not abs(value) <= sys.float_info.max:
        if isinstance(value, float):
            raise SchemaError(f"{what} must be finite, got {value!r}")
        raise SchemaError(f"{what} must be within float64 range, "
                          f"got a {len(str(abs(value)))}-digit integer")
    return value


# ---------------------------------------------------------------------------
# atomic writes (temp file in the target directory, then rename)


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a uniquely named temp file in
    the same directory, so concurrent writers never share a temp file and
    readers see the old or the new content, never a partial one. The temp
    file is created with the same mode (0o666 less the umask) as a plain
    ``open``, and is removed if the write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` to ``path`` as two-space indented JSON and a newline."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
