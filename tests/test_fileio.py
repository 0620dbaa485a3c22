import json
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oct_cascade import fileio
from oct_cascade.errors import CorruptFileError, OctCascadeError, ValidationError
from oct_cascade.fileio import (
    grid_header,
    read_boundaries,
    read_volume,
    write_boundaries,
    write_pgm,
    write_volume,
)
from oct_cascade.model import (
    GRID_TYPES,
    BoundarySet,
    EnFaceImage,
    OctVolume,
    PixelMask,
    ProbabilityMap3D,
    VoxelMask,
)

from test_model import valid_surfaces


def test_volume_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    v = OctVolume(rng.uniform(0, 1, size=(2, 8, 8)).astype(np.float32), spacing=(30, 4, 11))
    base = tmp_path / "vol"
    write_volume(v, str(base))
    back = read_volume(str(base))
    assert isinstance(back, OctVolume)
    assert np.array_equal(back.data, v.data)
    assert back.spacing == v.spacing
    raw1 = (tmp_path / "vol.raw").read_bytes()
    write_volume(back, str(tmp_path / "vol2"))
    assert (tmp_path / "vol2.raw").read_bytes() == raw1


def test_payload_length_matches_dims(tmp_path):
    v = OctVolume(np.zeros((2, 8, 8), dtype=np.float32))
    write_volume(v, str(tmp_path / "vol"))
    header = json.loads((tmp_path / "vol.json").read_text())
    assert header["dims"] == [2, 8, 8]
    assert len((tmp_path / "vol.raw").read_bytes()) == 2 * 8 * 8 * 4


def test_true_mask_voxel_is_byte_one(tmp_path):
    data = np.zeros((1, 2, 3), dtype=bool)
    data[0, 1, 2] = True
    write_volume(VoxelMask(data), str(tmp_path / "m"))
    raw = (tmp_path / "m.raw").read_bytes()
    assert raw[1 * 3 + 2] == 0x01
    assert raw.count(1) == 1


@pytest.mark.parametrize("grid", [VoxelMask, PixelMask, ProbabilityMap3D])
def test_write_volume_writes_the_grid_s_own_buffer(tmp_path, grid):
    """A mask's bool buffer is written through a uint8 view, a map's float32
    buffer as it is: the payload is the stored bytes and nothing of the
    grid's size is copied."""
    rng = np.random.default_rng(4)
    shape = (16, 256, 256)[-grid.ndim:]
    value = grid(rng.random(shape) < 0.3) if grid.kind == "mask" else grid(rng.random(shape, dtype=np.float32))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        write_volume(value, str(tmp_path / "g"))
        growth = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert (tmp_path / "g.raw").read_bytes() == value.data.astype(grid.stored_dtype()).tobytes()
    assert growth < value.data.nbytes / 4, f"writing the grid allocated {growth} bytes"


@pytest.mark.parametrize("value", [lambda fh: fh, lambda fh: types.SimpleNamespace(read=fh.read),
                                   lambda fh: types.SimpleNamespace(dims=(1, 2, 2), read=None),
                                   lambda fh: np.zeros((1, 2, 2))],
                         ids=["file", "read-without-dims", "dims-without-read", "array"])
def test_write_volume_refuses_a_value_that_is_neither_grid_nor_score_source(tmp_path, value):
    """Only a value with both `dims` and a callable `read` is written as a
    score source: a file object, which has `read` alone, is refused like
    any other value, and nothing is written."""
    with open(tmp_path / "f.txt", "w+") as fh:
        with pytest.raises(ValidationError, match="cannot serialize"):
            write_volume(value(fh), str(tmp_path / "g"))
    assert not (tmp_path / "g.json").exists() and not (tmp_path / "g.raw").exists()


def test_truncated_payload_is_corrupt(tmp_path):
    v = OctVolume(np.zeros((2, 8, 8), dtype=np.float32))
    write_volume(v, str(tmp_path / "vol"))
    raw = (tmp_path / "vol.raw").read_bytes()
    (tmp_path / "vol.raw").write_bytes(raw[:-4])  # one element short
    with pytest.raises(CorruptFileError, match="127"):
        read_volume(str(tmp_path / "vol"))


def test_oversized_payload_is_refused_before_it_is_read(tmp_path):
    # a sparse 1 GiB payload behind an 8x8x8 header: its size alone refuses it
    write_volume(OctVolume(np.zeros((8, 8, 8), dtype=np.float32)), str(tmp_path / "vol"))
    os.truncate(tmp_path / "vol.raw", 1 << 30)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CorruptFileError, match=r"vol\.raw.*268435456 elements.*require 512"):
            read_volume(str(tmp_path / "vol"))
        growth = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert growth < 1 << 20, f"refusing the payload allocated {growth} bytes"


def test_payload_that_shrinks_after_its_size_is_taken_is_corrupt(tmp_path, monkeypatch):
    write_volume(OctVolume(np.zeros((2, 8, 8), dtype=np.float32)), str(tmp_path / "vol"))
    os.truncate(tmp_path / "vol.raw", 127 * 4)
    stat = types.SimpleNamespace(st_size=128 * 4)
    monkeypatch.setattr(fileio, "os", types.SimpleNamespace(fstat=lambda fd: stat))
    with pytest.raises(CorruptFileError, match=r"vol\.raw.*127 elements.*require 128"):
        read_volume(str(tmp_path / "vol"))


def test_out_of_range_probability_payload(tmp_path):
    p = ProbabilityMap3D(np.full((1, 2, 2), 0.5, dtype=np.float32))
    write_volume(p, str(tmp_path / "p"))
    bad = np.full((1, 2, 2), 0.5, dtype="<f4")
    bad[0, 1, 0] = 1.5
    (tmp_path / "p.raw").write_bytes(bad.tobytes())
    with pytest.raises(ValidationError, match=r"\(0, 1, 0\)"):
        read_volume(str(tmp_path / "p"))


def test_mask_payload_rejects_other_bytes(tmp_path):
    write_volume(VoxelMask(np.zeros((1, 2, 2), dtype=bool)), str(tmp_path / "m"))
    (tmp_path / "m.raw").write_bytes(bytes([0, 1, 2, 0]))
    with pytest.raises(ValidationError, match="not 0/1"):
        read_volume(str(tmp_path / "m"))


@pytest.mark.parametrize("value, dtype", [
    (VoxelMask(np.zeros((1, 2, 2), dtype=bool)), "float32"),
    (OctVolume(np.zeros((1, 8, 8), dtype=np.float32)), "uint8"),
], ids=["mask-float32", "intensity-uint8"])
def test_kind_stored_in_another_dtype_is_corrupt(tmp_path, value, dtype):
    write_volume(value, str(tmp_path / "g"))
    header = json.loads((tmp_path / "g.json").read_text())
    (tmp_path / "g.json").write_text(json.dumps({**header, "dtype": dtype}))
    with pytest.raises(CorruptFileError, match="kind/dtype"):
        read_volume(str(tmp_path / "g"))


def test_grid_type_reads_the_header_alone(tmp_path):
    for value, name in (
        (OctVolume(np.zeros((1, 8, 8), dtype=np.float32)), "vol"),
        (EnFaceImage(np.zeros((1, 8), dtype=np.float32)), "enface"),
        (ProbabilityMap3D(np.zeros((1, 2, 2), dtype=np.float32)), "prob"),
        (VoxelMask(np.zeros((1, 2, 2), dtype=bool)), "mask"),
        (PixelMask(np.zeros((1, 2), dtype=bool)), "footprint"),
    ):
        write_volume(value, str(tmp_path / name))
        (tmp_path / f"{name}.raw").unlink()
        found, dims = grid_header(str(tmp_path / f"{name}.json"))
        assert found is type(value) and dims == value.data.shape


def test_header_kind_with_a_rank_no_grid_type_holds_is_corrupt(tmp_path):
    write_volume(ProbabilityMap3D(np.zeros((1, 2, 2), dtype=np.float32)), str(tmp_path / "p"))
    header = json.loads((tmp_path / "p.json").read_text())
    (tmp_path / "p.json").write_text(json.dumps({**header, "dims": [2, 2]}))
    for read in (grid_header, read_volume):
        with pytest.raises(CorruptFileError, match=r"p\.json': no grid type holds a 2D probability"):
            read(str(tmp_path / "p"))


@pytest.mark.parametrize("value, dims, payload, message", [
    (OctVolume(np.zeros((1, 8, 8))), None, np.full((1, 8, 8), np.nan, "<f4"), "intensity value .*nan"),
    (OctVolume(np.zeros((1, 8, 8))), [1, 4, 8], np.zeros(32, "<f4"), r"dims \(1, 4, 8\) too small"),
    (ProbabilityMap3D(np.zeros((1, 2, 2))), None, np.full(4, 1.5, "<f4"), r"probability value .*1\.5"),
    (VoxelMask(np.zeros((1, 2, 2), dtype=bool)), None, np.array([0, 1, 2, 0], np.uint8), "not 0/1"),
], ids=["nan", "small-volume", "out-of-range", "mask-byte"])
def test_payload_failing_its_type_check_names_the_raw_file(tmp_path, value, dims, payload, message):
    write_volume(value, str(tmp_path / "g"))
    if dims is not None:
        header = json.loads((tmp_path / "g.json").read_text())
        (tmp_path / "g.json").write_text(json.dumps({**header, "dims": dims}))
    (tmp_path / "g.raw").write_bytes(payload.tobytes())
    with pytest.raises(ValidationError, match=rf"^'[^']*g\.raw': .*{message}"):
        read_volume(str(tmp_path / "g"))


@st.composite
def grid_values(draw):
    """A small grid of every type, with a volume's spacing when it has one."""
    cls = draw(st.sampled_from(GRID_TYPES))
    side = 8 if cls is OctVolume else 0
    shape = draw(hnp.array_shapes(min_dims=cls.ndim, max_dims=cls.ndim, min_side=side,
                                  max_side=side + 3))
    if cls.kind == "mask":
        return cls(draw(hnp.arrays(bool, shape)))
    data = draw(hnp.arrays(np.float32, shape, elements=st.floats(0, 1, width=32)))
    if cls is OctVolume:
        return cls(data, spacing=draw(st.none() | st.tuples(*[st.floats(0.5, 50)] * 3)))
    return cls(data)


DIMS = st.lists(st.integers(-2, 12), max_size=4) | st.sampled_from([
    None, "2x8x8", [2.0, 8, 8], [True, 8], [2**64, 8, 8], [0, 2**62, 2], [2**40, 2**40, 0]])
SPACING = st.sampled_from([None, [10**400, 1, 1], [1, True, 1], "1,1,1"]) | st.lists(
    st.floats() | st.integers(-5, 5), max_size=4)
MUTATIONS = {
    "kind": st.sampled_from(["intensity", "probability", "mask", "wavelet", None, 1, ["mask"]]),
    "dtype": st.sampled_from(["float32", "uint8", "float64", "<f4", None, {"t": "uint8"}]),
    "dims": DIMS,
    "spacing": SPACING,
    "byte_order": st.sampled_from(["little", "big", None, 0]),
    "format": st.sampled_from(["oct-cascade-grid", "other", None]),
    "delete": st.sampled_from(["kind", "dtype", "dims", "spacing", "byte_order", "format"]),
    "bytes": st.binary(max_size=12),  # the whole header: not JSON, or not UTF-8
}


@settings(max_examples=300)
@given(value=grid_values(), data=st.data())
def test_mutated_grid_headers_fail_only_as_package_errors(tmp_path_factory, value, data):
    """Every grid type round-trips byte for byte; a mutated header or payload
    is refused as a package error, and whatever `read_volume` returns is
    what `grid_header` promised."""
    base = tmp_path_factory.mktemp("grid") / "g"
    write_volume(value, str(base))
    written = {ext: base.with_suffix(ext).read_bytes() for ext in (".json", ".raw")}
    back = read_volume(str(base))
    assert type(back) is type(value) and np.array_equal(back.data, value.data)
    assert getattr(back, "spacing", None) == getattr(value, "spacing", None)
    write_volume(back, str(base))
    assert {ext: base.with_suffix(ext).read_bytes() for ext in written} == written

    header = json.loads(written[".json"])
    text = None
    for key in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=3,
                                  unique=True)):
        mutation = data.draw(MUTATIONS[key])
        if key == "delete":
            header.pop(mutation)
        elif key == "bytes":
            text = mutation
        else:
            header[key] = mutation
    text = json.dumps(header).encode() if text is None else text
    base.with_suffix(".json").write_bytes(text)
    raw = bytearray(written[".raw"])
    change = data.draw(st.sampled_from(["none", "truncate", "extend", "byte"]))
    if change == "truncate":
        del raw[len(raw) - data.draw(st.integers(0, len(raw))):]
    elif change == "extend":
        raw += data.draw(st.binary(min_size=1, max_size=8))
    elif change == "byte" and raw:
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    base.with_suffix(".raw").write_bytes(raw)

    try:
        promised = grid_header(str(base))
    except OctCascadeError:
        promised = None
    try:
        got = read_volume(str(base))
    except OctCascadeError:
        return
    assert promised == (type(got), got.dims)


def test_2d_kinds_round_trip(tmp_path):
    img = EnFaceImage(np.linspace(0, 1, 12).reshape(3, 4))
    write_volume(img, str(tmp_path / "e"))
    assert isinstance(read_volume(str(tmp_path / "e")), EnFaceImage)
    pm = PixelMask(np.eye(3, dtype=bool))
    write_volume(pm, str(tmp_path / "pm"))
    back = read_volume(str(tmp_path / "pm"))
    assert isinstance(back, PixelMask)
    assert np.array_equal(back.data, pm.data)


def test_boundaries_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    surfaces = valid_surfaces(3, 10)
    for name in surfaces:
        surfaces[name] = surfaces[name] + rng.uniform(0, 0.9, size=(3, 10))
    b = BoundarySet(surfaces)
    path = tmp_path / "b.csv"
    write_boundaries(b, str(path))
    back = read_boundaries(str(path))
    for name in surfaces:
        assert np.max(np.abs(back[name] - b[name])) < 1e-6


def test_boundaries_ordering_violation_on_read(tmp_path):
    path = tmp_path / "b.csv"
    rows = ["boundary,slice,column,depth"]
    for name, depth in (("ILM", 3.0), ("INL_LOWER", 2.0), ("RPE_UPPER", 8.0), ("BM", 11.0)):
        for s in range(1):
            for x in range(2):
                rows.append(f"{name},{s},{x},{depth}")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="ordering"):
        read_boundaries(str(path))


def test_boundaries_missing_surface_rows(tmp_path):
    path = tmp_path / "b.csv"
    rows = ["boundary,slice,column,depth"]
    for name, depth in (("ILM", 2.0), ("INL_LOWER", 4.0), ("RPE_UPPER", 8.0)):
        for x in range(2):
            rows.append(f"{name},0,{x},{depth}")
    rows.append("BM,0,0,11.0")  # column 1 missing
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="incomplete"):
        read_boundaries(str(path))


def boundary_rows(n_slices=2, width=2):
    rows = ["boundary,slice,column,depth"]
    for name, depth in (("ILM", 2.0), ("INL_LOWER", 4.0), ("RPE_UPPER", 8.0), ("BM", 11.0)):
        for s in range(n_slices):
            for x in range(width):
                rows.append(f"{name},{s},{x},{depth}")
    return rows


@pytest.mark.parametrize(
    "cell, value, message",
    [
        (1, "0.5", "must be integers"),
        (2, "x", "must be integers"),
        (3, "deep", "a number"),
        (1, "-1", "negative"),
        (2, "-2", "negative"),
    ],
)
def test_boundaries_bad_cell_is_corrupt_and_names_row(tmp_path, cell, value, message):
    path = tmp_path / "b.csv"
    rows = boundary_rows()
    # The last ILM row, (slice 1, column 1), is line 5; slice -1 or column -2
    # would otherwise index that same cell from the end and read back whole.
    fields = rows[4].split(",")
    fields[cell] = value
    rows[4] = ",".join(fields)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CorruptFileError, match=rf"b\.csv' row 5: .*{message}"):
        read_boundaries(str(path))


@pytest.mark.parametrize("header", [[1, 2, 3], "oct-cascade-grid", 7, None])
def test_header_that_is_not_an_object_is_corrupt(tmp_path, header):
    (tmp_path / "vol.json").write_text(json.dumps(header))
    with pytest.raises(CorruptFileError, match=r"vol\.json"):
        read_volume(str(tmp_path / "vol"))


@pytest.mark.parametrize(
    "dims",
    [None, "2x8x8", {"y": 2}, [2, -8, 8], [2.0, 8, 8], [True, 8, 8], [2, "8", 8], [], [128],
     [1, 2, 8, 8], [0, 2**62, 8]],
)
def test_header_dims_must_be_non_negative_integers(tmp_path, dims):
    write_volume(OctVolume(np.zeros((2, 8, 8), dtype=np.float32)), str(tmp_path / "vol"))
    header = json.loads((tmp_path / "vol.json").read_text())
    if dims is None:
        del header["dims"]
    else:
        header["dims"] = dims
    (tmp_path / "vol.json").write_text(json.dumps(header))
    with pytest.raises(CorruptFileError, match=r"vol\.json.*dims"):
        read_volume(str(tmp_path / "vol"))


@pytest.mark.parametrize(
    "spacing", ["abc", 5, [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1, "2", 3], [True, 1, 1], {"dy": 1}, [],
                [10**400, 1, 1]],
)
def test_header_spacing_must_be_null_or_three_numbers(tmp_path, spacing):
    write_volume(OctVolume(np.zeros((2, 8, 8), dtype=np.float32)), str(tmp_path / "vol"))
    header = json.loads((tmp_path / "vol.json").read_text())
    header["spacing"] = spacing
    (tmp_path / "vol.json").write_text(json.dumps(header))
    with pytest.raises(CorruptFileError, match=r"vol\.json.*spacing"):
        read_volume(str(tmp_path / "vol"))
    header["spacing"] = [30, 4.5, 11]
    (tmp_path / "vol.json").write_text(json.dumps(header))
    assert read_volume(str(tmp_path / "vol")).spacing == (30.0, 4.5, 11.0)


def test_missing_and_malformed_headers(tmp_path):
    with pytest.raises(CorruptFileError, match="cannot read"):
        read_volume(str(tmp_path / "nothing"))
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(CorruptFileError, match="malformed"):
        read_volume(str(tmp_path / "bad"))
    (tmp_path / "alien.json").write_text('{"format": "something-else"}')
    with pytest.raises(CorruptFileError, match="not a grid container"):
        read_volume(str(tmp_path / "alien"))


def test_deeply_nested_header_is_corrupt(tmp_path):
    (tmp_path / "deep.json").write_text("[" * 100_000)
    with pytest.raises(CorruptFileError, match=r"malformed grid header .*deep\.json"):
        read_volume(str(tmp_path / "deep"))


def test_header_with_unsupported_fields(tmp_path):
    v = OctVolume(np.zeros((2, 8, 8), dtype=np.float32))
    write_volume(v, str(tmp_path / "vol"))
    header = json.loads((tmp_path / "vol.json").read_text())
    header["byte_order"] = "big"
    (tmp_path / "vol.json").write_text(json.dumps(header))
    with pytest.raises(CorruptFileError, match="byte order"):
        read_volume(str(tmp_path / "vol"))
    header["byte_order"] = "little"
    header["kind"] = "wavelet"
    (tmp_path / "vol.json").write_text(json.dumps(header))
    with pytest.raises(CorruptFileError, match="kind"):
        read_volume(str(tmp_path / "vol"))


def test_pgm_bytes(tmp_path):
    img = np.array([[0.0, 1.0], [0.5, 0.25]])
    path = tmp_path / "img.pgm"
    write_pgm(img, str(path))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 255, 128, 64]
