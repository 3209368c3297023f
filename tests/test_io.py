"""Round-trip and malformed-input tests for the file formats."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from lidarreg.geom import RigidMotion
from lidarreg.io import (
    _PLY_CHUNK_ROWS,
    FormatError,
    read_cloud_bin,
    read_cloud_ply,
    read_config,
    read_descriptors,
    read_jsonl,
    read_pair_list,
    read_poses,
    read_times,
    write_cloud_bin,
    write_cloud_ply,
    write_descriptors,
    write_histogram_csv,
    write_jsonl,
    write_pair_list,
    write_poses,
    write_times,
)
from lidarreg.metrics import PairRecord

from test_geom import random_motion


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_ply_round_trip_is_exact_at_float32(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-100, 100, (500, 3)).astype(np.float32).astype(np.float64)
    p = tmp_path / "cloud.ply"
    write_cloud_ply(p, pts)
    assert np.array_equal(read_cloud_ply(p), pts)


def test_ply_empty_cloud_round_trips(tmp_path):
    p = tmp_path / "empty.ply"
    write_cloud_ply(p, np.zeros((0, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_cloud_ply(p).shape == (0, 3)


@pytest.mark.parametrize("write", [write_cloud_ply, write_cloud_bin], ids=["ply", "bin"])
@pytest.mark.parametrize("shape", [(150, 2), (100, 4), (300,), (0,)])
def test_cloud_writers_refuse_the_wrong_shape_before_creating_the_file(
        tmp_path, write, shape):
    # a (150, 2) array was once written as a 100-point cloud
    p = tmp_path / "out"
    with pytest.raises(ValueError, match=r"cloud must have shape \(N, 3\), got \("):
        write(p, np.ones(shape))
    assert not p.exists()


def test_bin_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-80, 80, (300, 3)).astype(np.float32).astype(np.float64)
    p = tmp_path / "cloud.bin"
    write_cloud_bin(p, pts, intensity=rng.uniform(0, 1, 300))
    assert np.array_equal(read_cloud_bin(p), pts)


def test_descriptor_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    desc = rng.standard_normal((40, 33)).astype(np.float32).astype(np.float64)
    p = tmp_path / "d.fdsc"
    write_descriptors(p, desc)
    assert np.array_equal(read_descriptors(p), desc)


def test_pose_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    motions = [random_motion(rng) for _ in range(20)]
    p = tmp_path / "poses.txt"
    write_poses(p, motions)
    back = read_poses(p)
    assert len(back) == 20
    for a, b in zip(motions, back):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def test_times_round_trip_is_exact(tmp_path):
    times = [0.0, 0.1, 1.0 / 3.0, 12345.678901234567]
    p = tmp_path / "seq.times"
    write_times(p, times)
    assert p.read_text() == "".join(repr(t) + "\n" for t in times)
    assert read_times(p) == times


@pytest.mark.parametrize("bad, message", [
    (b"nan", "non-finite"),
    (b"inf", "non-finite"),
    (b"-inf", "non-finite"),
    (b"1.0x", "not a number"),
    ("2.0\u00e9".encode("utf-8"), "not ASCII"),
    (b"0.5", "smaller than the one before"),
    (b"2.0 1.5", "smaller than the one before"),
    (b"2.0 2.0 -1.0", "smaller than the one before"),
], ids=["nan", "inf", "-inf", "junk", "non-ascii",
        "decrease-next-line", "decrease-same-line", "decrease-after-a-tie"])
def test_times_errors_name_the_file_and_line(tmp_path, bad, message):
    p = tmp_path / "seq.times"
    p.write_bytes(b"0.0\n1.0\n" + bad + b"\n3.0\n")
    with pytest.raises(FormatError, match=message) as info:
        read_times(p)
    assert info.value.path == str(p) and info.value.line == 3


def test_times_may_repeat(tmp_path):
    p = tmp_path / "seq.times"
    p.write_bytes(b"0.0\n1.0 1.0\n1.0\n")
    assert read_times(p) == [0.0, 1.0, 1.0, 1.0]


def test_pair_list_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    records = [PairRecord(sequence_id=f"seq{i % 3}", src=i, tgt=i + 5,
                          motion=random_motion(rng),
                          overlap=float(rng.uniform(0.2, 1.0)),
                          dt=float(rng.uniform(0, 30)))
               for i in range(15)]
    p = tmp_path / "pairs.csv"
    write_pair_list(p, records)
    back = read_pair_list(p)
    assert len(back) == 15
    for a, b in zip(records, back):
        assert (a.sequence_id, a.src, a.tgt) == (b.sequence_id, b.src, b.tgt)
        assert np.array_equal(a.motion.rotation, b.motion.rotation)
        assert np.array_equal(a.motion.translation, b.motion.translation)
        assert a.overlap == b.overlap and a.dt == b.dt


def test_jsonl_round_trip(tmp_path):
    rows = [{"pair": 1, "re_deg": 0.125, "ok": True},
            {"pair": 2, "re_deg": float(np.pi), "note": "x,y"}]
    p = tmp_path / "out.jsonl"
    write_jsonl(p, rows)
    assert read_jsonl(p) == rows


def test_write_determinism(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-10, 10, (50, 3))
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    write_cloud_ply(a, pts)
    write_cloud_ply(b, pts)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(ja, [{"b": 1, "a": 2}])
    write_jsonl(jb, [{"a": 2, "b": 1}])
    assert ja.read_bytes() == jb.read_bytes()


def _per_line_ply_bytes(points) -> bytes:
    """A PLY file as the writer formatted it one f-string per row."""
    pts = np.ascontiguousarray(points, dtype=np.float32).reshape(-1, 3)
    text = PLY_HEADER.format(n=len(pts)) + "".join(
        f"{float(x):.9g} {float(y):.9g} {float(z):.9g}\n" for x, y, z in pts)
    return text.encode("ascii")


@pytest.mark.parametrize("points", [
    pytest.param([[-0.0, 0.0, 1e-45], [3.4028235e38, -3.4028235e38, -1e-45]],
                 id="signed-zero-subnormal-and-extremes"),
    pytest.param([[1, -2, 3], [16777216, -7, 0]], id="integers"),
    pytest.param(np.zeros((0, 3)), id="empty"),
    pytest.param(np.random.default_rng(3).normal(size=(200, 3)) * 1e3, id="random"),
])
def test_ply_writer_bytes_equal_a_per_line_formatter(tmp_path, points):
    p = tmp_path / "c.ply"
    write_cloud_ply(p, np.asarray(points, dtype=np.float64))
    assert p.read_bytes() == _per_line_ply_bytes(points)


@pytest.mark.parametrize("chunk_rows, n", [(7, 20), (_PLY_CHUNK_ROWS, _PLY_CHUNK_ROWS + 3)])
def test_ply_writer_bytes_span_chunks(tmp_path, monkeypatch, chunk_rows, n):
    # clouds longer than one chunk, which they do not fill evenly
    monkeypatch.setattr("lidarreg.io._PLY_CHUNK_ROWS", chunk_rows)
    pts = np.random.default_rng(n).uniform(-300.0, 300.0, (n, 3))
    p = tmp_path / "c.ply"
    write_cloud_ply(p, pts)
    assert p.read_bytes() == _per_line_ply_bytes(pts)


def _write_bin_intensity(path, values):
    write_cloud_bin(path, np.zeros((len(values), 3)), intensity=values)


@pytest.mark.parametrize("write, shape", [
    pytest.param(write_cloud_ply, (2, 3), id="ply"),
    pytest.param(write_cloud_bin, (2, 3), id="bin"),
    pytest.param(_write_bin_intensity, (2,), id="bin-intensity"),
    pytest.param(write_descriptors, (2, 4), id="descriptors"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
def test_writers_refuse_values_not_finite_at_float32(tmp_path, write, shape, bad):
    # what the readers would reject is never written; 1e39 overflows float32
    values = np.ones(shape)
    values.flat[-1] = bad
    p = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite at float32 precision$"):
            write(p, values)
    assert not p.exists()


def test_histogram_csv_layout(tmp_path):
    edges = np.array([0.0, 1.0, 2.0])
    p = tmp_path / "h.csv"
    write_histogram_csv(p, edges, {"count": np.array([3, 4])})
    lines = p.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1] == "0.0,1.0,3"
    assert lines[2] == "1.0,2.0,4"
    # success split: counts as integers, ratios as shortest round-trip floats
    write_histogram_csv(p, edges, {"successes": np.array([1, 0]),
                                   "failures": np.array([2, 0]),
                                   "failure_ratio": np.array([2 / 3, 0.0])})
    assert p.read_text() == ("bin_lo,bin_hi,successes,failures,failure_ratio\n"
                             "0.0,1.0,1,2,0.6666666666666666\n"
                             "1.0,2.0,0,0,0.0\n")


def test_histogram_csv_column_of_the_wrong_length_writes_nothing(tmp_path):
    p = tmp_path / "h.csv"
    with pytest.raises(ValueError):
        write_histogram_csv(p, [0.0, 1.0, 2.0], {"count": [3, 4, 5]})
    assert not p.exists()


def test_config_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# ablation A\nseed = 7\nfilter=gpf\n\ngpf = 2.0\n")
    assert read_config(p) == {"seed": "7", "filter": "gpf", "gpf": "2.0"}


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------

def test_ply_bad_magic(tmp_path):
    p = tmp_path / "x.ply"
    p.write_text("plyx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(FormatError, match="magic"):
        read_cloud_ply(p)


def test_ply_binary_format_rejected(tmp_path):
    p = tmp_path / "x.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\n"
                 "element vertex 0\nproperty float x\nproperty float y\n"
                 "property float z\nend_header\n")
    with pytest.raises(FormatError, match="ascii"):
        read_cloud_ply(p)


def test_ply_truncated_body(tmp_path):
    p = tmp_path / "x.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 0 0\n1 1 1\n")
    with pytest.raises(FormatError, match="truncated"):
        read_cloud_ply(p)


def test_ply_bad_token_names_line(tmp_path):
    p = tmp_path / "x.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 zero 0\n")
    with pytest.raises(FormatError, match=":8"):
        read_cloud_ply(p)


def test_ply_non_finite_rejected(tmp_path):
    p = tmp_path / "x.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\nnan 0 0\n")
    with pytest.raises(FormatError, match="non-finite"):
        read_cloud_ply(p)


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex {n}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "end_header\n")
PLY_BODY_LINE = 8       # first body line under PLY_HEADER


def _per_line_ply(path) -> np.ndarray:
    """Body of a PLY file under PLY_HEADER, read one line at a time."""
    lines = path.read_text(encoding="ascii").splitlines()
    n = int(lines[2].split()[2])
    body = lines[PLY_BODY_LINE - 1:]
    while body and not body[-1].strip():
        body.pop()
    assert len(body) == n
    out = np.empty((n, 3), dtype=np.float32)
    for row, raw in enumerate(body):
        line = PLY_BODY_LINE + row
        tokens = raw.split()
        if len(tokens) != 3:
            raise FormatError(path, f"expected 3 coordinates, got {len(tokens)}", line)
        try:
            vals = [float(t) for t in tokens]
        except ValueError as e:
            raise FormatError(path, f"not a number: {e}", line) from e
        if not np.all(np.isfinite(vals)):
            raise FormatError(path, "non-finite value", line)
        with np.errstate(over="ignore"):
            out[row] = vals
        if not np.isfinite(out[row]).all():
            raise FormatError(path, "coordinate exceeds float32 range", line)
    return out.astype(np.float64)


def _ply(tmp_path, body: str, n: int):
    p = tmp_path / "body.ply"
    p.write_text(PLY_HEADER.format(n=n) + body)
    return p


@pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 1e3, 1e30])
def test_ply_bulk_read_equals_the_per_line_read(tmp_path, scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 40)
    pts = rng.normal(size=(500, 3)) * scale
    pts[:6] = [[0.0, -0.0, 1e-45], [3.4028235e38, -3.4028235e38, 1.17549435e-38],
               [1e-40, -1e-40, 7.0], [0.1, 0.2, 0.3], [1.0, 2.0, 3.0],
               [np.float32(np.pi), -np.float32(np.e), 65504.0]]
    p = tmp_path / "cloud.ply"
    write_cloud_ply(p, pts)
    got = read_cloud_ply(p)
    assert got.tobytes() == _per_line_ply(p).tobytes()
    assert np.array_equal(got, pts.astype(np.float32).astype(np.float64))


def test_ply_accepts_every_token_python_float_accepts(tmp_path):
    # underscores, signs, exponents, leading zeros, a unit separator
    # (whitespace to str.split) and trailing blank lines
    body = "1_0 +2.5 -.5\n1E3 5e-1 00\n\t7\x1f8  9 \n-0 1. 1_000.5\n\n  \n"
    p = _ply(tmp_path, body, n=4)
    got = read_cloud_ply(p)
    assert got.tolist() == [[10.0, 2.5, -0.5], [1000.0, 0.5, 0.0],
                            [7.0, 8.0, 9.0], [0.0, 1.0, 1000.5]]
    assert got.tobytes() == _per_line_ply(p).tobytes()


def test_ply_underscored_coordinates_read_as_the_plain_cloud(tmp_path):
    # numpy's text reader refuses "1_0", so such a body goes line by line
    pts = np.arange(30.0).reshape(10, 3) * 10.0 + 10.0
    plain = tmp_path / "plain.ply"
    write_cloud_ply(plain, pts)
    body = "".join(" ".join(f"{int(v) // 10}_{int(v) % 10}" for v in row) + "\n"
                   for row in pts)
    assert "1_0 2_0 3_0" in body
    got = read_cloud_ply(_ply(tmp_path, body, n=len(pts)))
    assert got.tobytes() == read_cloud_ply(plain).tobytes()


@pytest.mark.parametrize("body, line, message", [
    # two tokens next to four: 3n tokens in all, still a bad line
    ("0 0 0\n1 1\n2 2 2 2\n", 9, "expected 3 coordinates, got 2"),
    ("0 0 0\n1 1 1 1\n2 2\n", 9, "expected 3 coordinates, got 4"),
    ("0 0 0\n\n1 1 1\n", 9, "expected 3 coordinates, got 0"),
    ("0 0 0\n1 1e39 1\n", 9, "coordinate exceeds float32 range"),
    ("0 0 0\n1 1 -1e39\n", 9, "coordinate exceeds float32 range"),
    ("0 0 0\nnan 1 1\n", 9, "non-finite value"),
    ("0 0 0\n1 -inf 1\n", 9, "non-finite value"),
    ("0 0 0\n1 1e309 1\n", 9, "non-finite value"),
    ("0 0 0\n1 zero 1\n", 9,
     "not a number: could not convert string to float: 'zero'"),
    ("0 0 0\n1 2 |\n", 9, "not a number: could not convert string to float: '|'"),
    ("0 0 |\n1 2 3 |\n", 8, "not a number: could not convert string to float: '|'"),
    ("0 0 0 |\n1 2 3\n", 8, "expected 3 coordinates, got 4"),
    ("0 0 0\n1 zero 1\n2 2 2 2\n", 9,
     "not a number: could not convert string to float: 'zero'"),
    ("1 2\n0 0 nan\n1 1 1e39 1\n", 8, "expected 3 coordinates, got 2"),
])
def test_ply_errors_name_the_first_bad_line(tmp_path, body, line, message):
    p = _ply(tmp_path, body, n=len(body.rstrip("\n").split("\n")))
    with pytest.raises(FormatError) as got:
        read_cloud_ply(p)
    assert got.value.line == line
    assert str(got.value) == f"{p}:{line}: {message}"
    with pytest.raises(FormatError) as want:
        _per_line_ply(p)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", ["1e39", "-1e39"])
def test_ply_float32_overflow_raises_format_error_without_a_warning(tmp_path, value):
    # the per-line path used to let numpy warn about the float32 cast first
    p = _ply(tmp_path, f"0 0 0\n1 {value} 1\n", n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="coordinate exceeds float32 range$"):
            read_cloud_ply(p)


def test_ply_trailing_blank_lines_are_ignored(tmp_path):
    p = _ply(tmp_path, "1 2 3\n4 5 6\n\n   \n\t\n", n=2)
    assert read_cloud_ply(p).tolist() == [[1, 2, 3], [4, 5, 6]]
    p = _ply(tmp_path, "1 2 3\n\n\n", n=2)
    with pytest.raises(FormatError, match=r"truncated: 1 of 2 vertices$"):
        read_cloud_ply(p)
    p = _ply(tmp_path, "1 2 3\n4 5 6\n7 8 9\n\n", n=2)
    with pytest.raises(FormatError, match=r"1 lines after the last vertex$"):
        read_cloud_ply(p)


@pytest.mark.parametrize("count", ["-1", "-7", "2.0", "two"])
def test_ply_bad_vertex_count_names_the_header_line(tmp_path, count):
    p = tmp_path / "x.ply"
    p.write_text(PLY_HEADER.replace("{n}", count))
    with pytest.raises(FormatError) as err:
        read_cloud_ply(p)
    assert str(err.value) == f"{p}:3: bad vertex count"


def test_bin_length_not_multiple_of_16(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"\x00" * 37)
    with pytest.raises(FormatError, match="16"):
        read_cloud_bin(p)


def test_descriptor_bad_magic(tmp_path):
    p = tmp_path / "x.fdsc"
    p.write_bytes(b"XDSC" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        read_descriptors(p)


def test_descriptor_truncated_payload(tmp_path):
    import struct
    p = tmp_path / "x.fdsc"
    p.write_bytes(b"FDSC" + struct.pack("<II", 4, 8) + b"\x00" * 16)
    with pytest.raises(FormatError, match="length"):
        read_descriptors(p)


def test_pose_line_with_11_numbers_names_the_line(tmp_path):
    p = tmp_path / "poses.txt"
    good = " ".join(["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1", "0"])
    p.write_text(good + "\n" + good.rsplit(" ", 1)[0] + "\n")
    with pytest.raises(FormatError, match=":2"):
        read_poses(p)


def test_pose_invalid_rotation_rejected(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text(" ".join(["2", "0", "0", "0", "0", "1", "0", "0",
                           "0", "0", "1", "0"]) + "\n")
    with pytest.raises(FormatError, match="orthonormal"):
        read_poses(p)


def test_pair_list_header_must_match(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("sequence,src,tgt\n")
    with pytest.raises(FormatError, match="header"):
        read_pair_list(p)


def test_pair_list_short_row_names_line(tmp_path):
    records = [PairRecord("s", 0, 1, RigidMotion.identity(), 0.5, 1.0)]
    p = tmp_path / "pairs.csv"
    write_pair_list(p, records)
    p.write_text(p.read_text() + "s,0\n")
    with pytest.raises(FormatError, match=":3"):
        read_pair_list(p)


def test_jsonl_bad_line(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"a": 1}\n{"b": \n')
    with pytest.raises(FormatError, match=":2"):
        read_jsonl(p)


def test_jsonl_non_object_line(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text("[1, 2]\n")
    with pytest.raises(FormatError, match="object"):
        read_jsonl(p)


def test_config_missing_equals(tmp_path):
    p = tmp_path / "x.cfg"
    p.write_text("seed 7\n")
    with pytest.raises(FormatError, match="key=value"):
        read_config(p)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="unreadable"):
        read_cloud_ply(tmp_path / "absent.ply")
    with pytest.raises(FormatError, match="unreadable"):
        read_descriptors(tmp_path / "absent.fdsc")


# ---------------------------------------------------------------------------
# fuzz: arbitrary bytes never crash a parser
# ---------------------------------------------------------------------------

READERS = [read_cloud_ply, read_cloud_bin, read_descriptors, read_poses,
           read_pair_list, read_jsonl, read_config]


def test_parsers_survive_arbitrary_bytes(tmp_path):
    rng = np.random.default_rng(99)
    p = tmp_path / "garbage"
    for trial in range(60):
        n = int(rng.integers(0, 400))
        p.write_bytes(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
        for reader in READERS:
            try:
                reader(p)
            except FormatError:
                pass


def test_parsers_survive_hostile_text(tmp_path):
    p = tmp_path / "garbage"
    samples = [
        "", "\n\n\n", "ply", "ply\nformat ascii 1.0\n",
        "FDSC", "sequence_id,src,tgt\n1,2",
        "=\n==\n", "1 2 3\n", '{"a"}',
        "ply\nformat ascii 1.0\nelement vertex 99999999\nproperty float x\n"
        "property float y\nproperty float z\nend_header\n",
    ]
    for text in samples:
        p.write_text(text)
        for reader in READERS:
            try:
                reader(p)
            except FormatError:
                pass
