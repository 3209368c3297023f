"""Readers and writers for the on-disk formats.

Six formats: ASCII PLY clouds (float32 x, y, z), raw binary clouds
(little-endian float32 x, y, z, intensity quadruples), descriptor files
(``FDSC`` magic, u32 count, u32 dim, float32 rows), pose files (one 3x4
row-major matrix of 12 reals per line), timestamp files (one time in
seconds per line), and the pair-list CSV.  JSON-lines
results, histogram CSVs, and a flat key=value config format round out the
set.

Every parser raises :class:`FormatError` -- never an uncaught low-level
exception -- on malformed input, naming the file and where possible the
line.  A PLY body is parsed by numpy's text reader; only a body it refuses
is read again line by line, to name the first bad line.  Writers emit LF
line endings and shortest round-trip float text, so equal inputs produce
byte-identical files.  Cloud coordinates are stored at float32 precision;
everything held as float64 elsewhere survives a write/read cycle exactly
in the other text formats.  The cloud and descriptor writers raise
ValueError, before creating the file, on a value that is not finite at
float32 precision, since their readers would reject it.
"""

from __future__ import annotations

import csv
import json
import struct
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .geom import F64, Points, RigidMotion, _cloud, rotation_is_valid
from .metrics import PairRecord

__all__ = [
    "FormatError",
    "read_cloud_ply", "write_cloud_ply",
    "read_cloud_bin", "write_cloud_bin",
    "read_descriptors", "write_descriptors",
    "read_poses", "write_poses",
    "read_times", "write_times",
    "read_pair_list", "write_pair_list",
    "read_jsonl", "write_jsonl",
    "write_histogram_csv",
    "read_config",
]

DESCRIPTOR_MAGIC = b"FDSC"
POSE_ROTATION_TOL = 1e-6

PAIR_LIST_HEADER = (
    "sequence_id", "src", "tgt",
    "r00", "r01", "r02", "r03",
    "r10", "r11", "r12", "r13",
    "r20", "r21", "r22", "r23",
    "overlap", "dt",
)


class FormatError(ValueError):
    """Malformed file content, with path and (when known) line context."""

    def __init__(self, path, message: str, line: int | None = None):
        self.path = str(path)
        self.line = line
        self._message = message
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # survives pickling across process boundaries
        return (FormatError, (self.path, self._message, self.line))


def _read_text(path) -> list[str]:
    try:
        return Path(path).read_text(encoding="ascii").splitlines()
    except OSError as e:
        raise FormatError(path, f"unreadable: {e.strerror}") from e
    except UnicodeDecodeError as e:
        line = e.object.count(b"\n", 0, e.start) + 1
        raise FormatError(path, "not ASCII text", line) from e


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise FormatError(path, f"unreadable: {e.strerror}") from e


def _floats(path, tokens, line: int) -> list[float]:
    try:
        vals = [float(t) for t in tokens]
    except ValueError as e:
        raise FormatError(path, f"not a number: {e}", line) from e
    if not all(np.isfinite(vals)):
        raise FormatError(path, "non-finite value", line)
    return vals


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def read_cloud_ply(path) -> Points:
    lines = _read_text(path)
    if not lines or lines[0].strip() != "ply":
        raise FormatError(path, "missing 'ply' magic", 1)
    n_vertex: int | None = None
    props: list[str] = []
    body_at: int | None = None
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:] != ["ascii", "1.0"]:
                raise FormatError(path, "only 'format ascii 1.0' is supported", i)
        elif parts[0] == "comment":
            continue
        elif parts[0] == "element":
            if parts[1:2] != ["vertex"] or len(parts) != 3:
                raise FormatError(path, "only a single vertex element is supported", i)
            try:
                n_vertex = int(parts[2])
            except ValueError as e:
                raise FormatError(path, "bad vertex count", i) from e
            if n_vertex < 0:
                raise FormatError(path, "bad vertex count", i)
        elif parts[0] == "property":
            if len(parts) != 3 or parts[1] != "float":
                raise FormatError(path, "only float properties are supported", i)
            props.append(parts[2])
        elif parts[0] == "end_header":
            body_at = i
            break
        else:
            raise FormatError(path, f"unexpected header line {parts[0]!r}", i)
    if body_at is None or n_vertex is None:
        raise FormatError(path, "incomplete header")
    if props != ["x", "y", "z"]:
        raise FormatError(path, "vertex properties must be float x, y, z")

    body = lines[body_at:]
    while body and not body[-1].strip():
        body.pop()
    if len(body) < n_vertex:
        raise FormatError(path, f"truncated: {len(body)} of {n_vertex} vertices")
    if len(body) > n_vertex:
        raise FormatError(path, f"{len(body) - n_vertex} lines after the last vertex")
    out = _vertex_body(body)
    if out is None:
        # some line is malformed: parse line by line to name the first one
        out = np.empty((n_vertex, 3), dtype=np.float32)
        for row, raw in enumerate(body):
            tokens = raw.split()
            if len(tokens) != 3:
                raise FormatError(path, f"expected 3 coordinates, got {len(tokens)}",
                                  body_at + 1 + row)
            vals = _floats(path, tokens, body_at + 1 + row)
            with np.errstate(over="ignore"):
                out[row] = vals
            if not np.isfinite(out[row]).all():
                raise FormatError(path, "coordinate exceeds float32 range",
                                  body_at + 1 + row)
    # the format carries float32 precision; widen only at the boundary
    return out.astype(np.float64)


def _vertex_body(body: list[str]) -> NDArray[np.float32] | None:
    """All vertex rows in one parse, or None when any line is malformed."""
    if not body:
        return np.empty((0, 3), dtype=np.float32)
    try:
        vals = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines, so a blank body line changes the shape
    if vals.shape != (len(body), 3):
        return None
    with np.errstate(over="ignore"):
        out = vals.astype(np.float32)
    if not np.isfinite(out).all():
        return None
    return out


_PLY_CHUNK_ROWS = 65536


def _float32(path, values, what: str) -> NDArray[np.float32]:
    """``values`` cast to little-endian float32, refused when any is not
    finite there."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: {what} has a value that is not finite "
                         "at float32 precision")
    return out


def write_cloud_ply(path, points: Points) -> None:
    pts = _float32(path, _cloud(points, f"{path}: cloud"), "cloud")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("end_header\n")
        for start in range(0, len(pts), _PLY_CHUNK_ROWS):
            chunk = pts[start:start + _PLY_CHUNK_ROWS]
            f.write("%.9g %.9g %.9g\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def read_cloud_bin(path) -> Points:
    """Raw x, y, z, intensity quadruples; the intensity channel is dropped."""
    buf = _read_bytes(path)
    if len(buf) % 16 != 0:
        raise FormatError(path, f"truncated: {len(buf)} bytes is not a "
                                "multiple of 16")
    rows = np.frombuffer(buf, dtype="<f4").reshape(-1, 4)
    pts = rows[:, :3].astype(np.float64)
    if not np.isfinite(pts).all():
        raise FormatError(path, "non-finite coordinate")
    return pts


def write_cloud_bin(path, points: Points, intensity=None) -> None:
    pts = _float32(path, _cloud(points, f"{path}: cloud"), "cloud")
    rows = np.zeros((len(pts), 4), dtype="<f4")
    rows[:, :3] = pts
    if intensity is not None:
        rows[:, 3] = _float32(path, intensity, "intensity")
    Path(path).write_bytes(rows.tobytes())


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def read_descriptors(path) -> NDArray[F64]:
    buf = _read_bytes(path)
    if len(buf) < 12:
        raise FormatError(path, "truncated header")
    if buf[:4] != DESCRIPTOR_MAGIC:
        raise FormatError(path, f"bad magic {buf[:4]!r}, expected "
                                f"{DESCRIPTOR_MAGIC!r}")
    count, dim = struct.unpack("<II", buf[4:12])
    expect = 12 + 4 * count * dim
    if len(buf) != expect:
        raise FormatError(path, f"length {len(buf)} does not match header "
                                f"({count} x {dim} needs {expect})")
    data = np.frombuffer(buf, dtype="<f4", offset=12).astype(np.float64)
    if not np.isfinite(data).all():
        raise FormatError(path, "non-finite descriptor value")
    return data.reshape(count, dim)


def write_descriptors(path, descriptors) -> None:
    desc = _float32(path, descriptors, "descriptors")
    if desc.ndim != 2:
        raise ValueError("descriptors must be a 2-D array")
    header = DESCRIPTOR_MAGIC + struct.pack("<II", desc.shape[0], desc.shape[1])
    Path(path).write_bytes(header + desc.tobytes())


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

def _motion_from_reals(path, vals: list[float], line: int) -> RigidMotion:
    m = np.array(vals, dtype=np.float64).reshape(3, 4)
    if not rotation_is_valid(m[:, :3], tol=POSE_ROTATION_TOL):
        raise FormatError(path, "rotation block is not orthonormal", line)
    return RigidMotion(rotation=m[:, :3], translation=m[:, 3].copy())


def read_poses(path) -> list[RigidMotion]:
    out: list[RigidMotion] = []
    for i, raw in enumerate(_read_text(path), start=1):
        if not raw.strip():
            continue
        tokens = raw.split()
        if len(tokens) != 12:
            raise FormatError(path, f"expected 12 reals, got {len(tokens)}", i)
        out.append(_motion_from_reals(path, _floats(path, tokens, i), i))
    return out


def write_poses(path, motions) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for m in motions:
            f.write(" ".join(repr(float(v)) for v in m.matrix34().ravel()) + "\n")


def read_times(path) -> list[float]:
    """Frame timestamps in seconds, whitespace-separated and nondecreasing;
    ``write_times`` puts one per line."""
    out: list[float] = []
    for i, raw in enumerate(_read_text(path), start=1):
        vals = _floats(path, raw.split(), i)
        if any(b < a for a, b in zip(out[-1:] + vals, vals)):
            raise FormatError(path, "timestamp smaller than the one before it", i)
        out += vals
    return out


def write_times(path, times) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for t in times:
            f.write(repr(float(t)) + "\n")


# ---------------------------------------------------------------------------
# pair lists
# ---------------------------------------------------------------------------

def read_pair_list(path) -> list[PairRecord]:
    lines = _read_text(path)
    rows = list(csv.reader(lines))
    if not rows or tuple(rows[0]) != PAIR_LIST_HEADER:
        raise FormatError(path, "bad or missing header", 1)
    out: list[PairRecord] = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(PAIR_LIST_HEADER):
            raise FormatError(path, f"expected {len(PAIR_LIST_HEADER)} fields, "
                                    f"got {len(row)}", i)
        try:
            src, tgt = int(row[1]), int(row[2])
        except ValueError as e:
            raise FormatError(path, f"bad frame index: {e}", i) from e
        vals = _floats(path, row[3:], i)
        motion = _motion_from_reals(path, vals[:12], i)
        out.append(PairRecord(sequence_id=row[0], src=src, tgt=tgt,
                              motion=motion, overlap=vals[12], dt=vals[13]))
    return out


def write_pair_list(path, records) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(PAIR_LIST_HEADER)
        for r in records:
            reals = [repr(float(v)) for v in r.motion.matrix34().ravel()]
            w.writerow([r.sequence_id, r.src, r.tgt, *reals,
                        repr(float(r.overlap)), repr(float(r.dt))])


# ---------------------------------------------------------------------------
# results, histograms, config
# ---------------------------------------------------------------------------

def read_jsonl(path) -> list[dict]:
    out: list[dict] = []
    for i, raw in enumerate(_read_text(path), start=1):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as e:
            raise FormatError(path, f"bad JSON: {e.msg}", i) from e
        if not isinstance(row, dict):
            raise FormatError(path, "each line must hold a JSON object", i)
        out.append(row)
    return out


def write_jsonl(path, rows) -> None:
    """One sorted-key JSON line per row; a ``path`` of None or "-" is stdout."""
    with (nullcontext(sys.stdout) if path in (None, "-") else
          open(path, "w", encoding="ascii", newline="\n")) as f:
        f.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_histogram_csv(path, edges, columns) -> None:
    """One row per bin: ``bin_lo,bin_hi``, then one value from each of
    ``columns`` (name: one value per bin), in their order.  Integers are
    written as integers and floats as shortest round-trip text.  A column
    that is not one value per bin raises ``ValueError`` before the file is
    created."""
    edges = np.asarray(edges, dtype=np.float64)
    cells = [np.asarray(c).tolist() for c in (edges[:-1], edges[1:], *columns.values())]
    rows = [",".join(map(str, row)) + "\n" for row in zip(*cells, strict=True)]
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(["bin_lo", "bin_hi", *columns]) + "\n")
        f.writelines(rows)


def read_config(path) -> dict[str, str]:
    """Flat ``key=value`` lines; blank lines and ``#`` comments are skipped."""
    out: dict[str, str] = {}
    for i, raw in enumerate(_read_text(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(path, "expected key=value", i)
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
