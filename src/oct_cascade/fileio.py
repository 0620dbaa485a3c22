"""On-disk containers: raw grid files, boundary CSVs, and PGM images.

Grid values (volumes, masks, probability maps, en-face images) are stored
as a `<name>.json` header next to a `<name>.raw` little-endian payload in
slice-major, then depth, then column order. Intensities and probabilities
are 32-bit floats; masks are single 0/1 bytes. Boundaries travel as CSV
with one row per (boundary, slice, column).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import CorruptFileError, ValidationError
from .model import (
    BOUNDARY_NAMES,
    BoundarySet,
    EnFaceImage,
    OctVolume,
    PixelMask,
    ProbabilityMap3D,
    VoxelMask,
)

_FORMAT = "oct-cascade-grid"
_VERSION = 1

GridValue = OctVolume | EnFaceImage | PixelMask | VoxelMask | ProbabilityMap3D

_KINDS: list[tuple[type, str, str]] = [
    (OctVolume, "intensity", "float32"),
    (EnFaceImage, "intensity", "float32"),
    (ProbabilityMap3D, "probability", "float32"),
    (VoxelMask, "mask", "uint8"),
    (PixelMask, "mask", "uint8"),
]


def _base_path(path: str) -> str:
    return path[: -len(".json")] if path.endswith(".json") else path


def write_volume(value: GridValue, path: str) -> None:
    """Write a grid value as `<path>.json` + `<path>.raw`.

    `path` may name either the base or the .json file; the .raw sibling is
    derived. The parent directory must already exist.
    """
    base = _base_path(path)
    for cls, kind, dtype in _KINDS:
        if isinstance(value, cls):
            break
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__}")

    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": kind,
        "dims": list(value.data.shape),
        "dtype": dtype,
        "byte_order": "little",
        "spacing": list(value.spacing) if getattr(value, "spacing", None) else None,
    }
    # No copy when the data already has the stored dtype and layout.
    payload = np.ascontiguousarray(value.data, dtype="<f4" if dtype == "float32" else np.uint8)
    try:
        with open(base + ".json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(base + ".raw", "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CorruptFileError(f"failed writing grid container {base!r}: {exc}") from exc


def _read_header(path: str) -> tuple[str, str, tuple[int, ...], list | None]:
    """The base path, kind, dims and spacing of a checked grid header."""
    base = _base_path(path)
    name = base + ".json"
    try:
        with open(name) as fh:
            header = json.load(fh)
    except OSError as exc:
        raise CorruptFileError(f"cannot read grid header {name!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorruptFileError(f"malformed grid header {name!r}: {exc}") from exc

    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise CorruptFileError(f"{name!r} is not a grid container header")
    kind = header.get("kind")
    dims = header.get("dims")
    # JSON integers load as int; bool, float and str dims are corrupt.
    if not (isinstance(dims, list) and len(dims) in (2, 3)
            and all(type(d) is int and d >= 0 for d in dims)):
        raise CorruptFileError(f"{name!r}: dims {dims!r} are not 2 or 3 non-negative integers")
    spacing = header.get("spacing")
    if spacing is not None and not (
        isinstance(spacing, list) and len(spacing) == 3
        and all(type(v) in (int, float) for v in spacing)
    ):
        raise CorruptFileError(f"{name!r}: spacing {spacing!r} is neither null nor 3 numbers")
    dtype = header.get("dtype")
    if header.get("byte_order") != "little":
        raise CorruptFileError(f"unsupported byte order {header.get('byte_order')!r}")
    # Each kind is stored in the one dtype write_volume gives it.
    if (kind, dtype) not in {(k, d) for _, k, d in _KINDS}:
        raise CorruptFileError(f"unsupported kind/dtype {kind!r}/{dtype!r} in {base!r}")
    return base, kind, tuple(dims), spacing


def _value_type(kind: str, rank: int) -> type:
    if kind == "probability":
        return ProbabilityMap3D
    if kind == "mask":
        return VoxelMask if rank == 3 else PixelMask
    return OctVolume if rank == 3 else EnFaceImage


def grid_type(path: str) -> type:
    """The type :func:`read_volume` returns for `path`, from its header alone."""
    _, kind, dims, _ = _read_header(path)
    return _value_type(kind, len(dims))


def read_volume(path: str) -> GridValue:
    """Read a grid container written by :func:`write_volume`.

    The concrete type is recovered from the header's kind and rank; range
    invariants are re-validated so a corrupt payload cannot leak out.
    """
    base, kind, dims, spacing = _read_header(path)
    n_expected = math.prod(dims)
    itemsize = 1 if kind == "mask" else 4
    try:
        with open(base + ".raw", "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorruptFileError(f"cannot read grid payload {base + '.raw'!r}: {exc}") from exc
    if len(raw) != n_expected * itemsize:
        raise CorruptFileError(
            f"{base + '.raw'!r}: payload has {len(raw) // itemsize} elements, "
            f"header dims {dims} require {n_expected}"
        )

    data = np.frombuffer(raw, dtype=np.uint8 if kind == "mask" else "<f4").reshape(dims)
    cls = _value_type(kind, len(dims))
    if kind == "mask":
        # Only a payload with a byte above 1 is searched for the first one;
        # a 0/1 payload is its own bool array.
        if data.max(initial=0) > 1:
            idx = tuple(int(i) for i in np.argwhere(data > 1)[0])
            raise ValidationError(f"mask byte {int(data[idx])} at voxel {idx} is not 0/1")
        return cls(data.view(bool))
    # ValidationError from the constructors already names the offending voxel.
    if cls is OctVolume:
        return OctVolume(data, spacing=None if spacing is None else tuple(spacing))
    return cls(data)


def write_boundaries(b: BoundarySet, path: str) -> None:
    """Write a boundary set as CSV rows (boundary, slice, column, depth)."""
    # The bytes csv.writer would write: no field needs quoting, a float is
    # its repr, and rows end in \r\n. Formatting them directly takes half
    # the time csv.writer does.
    with open(path, "w", newline="") as fh:
        fh.write("boundary,slice,column,depth\r\n")
        for name in BOUNDARY_NAMES:
            for s, row in enumerate(b[name].tolist()):
                fh.write("".join([f"{name},{s},{x},{depth!r}\r\n" for x, depth in enumerate(row)]))


def read_boundaries(path: str) -> BoundarySet:
    """Read a boundary CSV, re-validating completeness and ordering."""
    cells: dict[str, dict[tuple[int, int], float]] = {n: {} for n in BOUNDARY_NAMES}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["boundary", "slice", "column", "depth"]:
                raise CorruptFileError(f"{path!r}: unexpected boundary CSV header {header}")

            def bad_row(message: str) -> CorruptFileError:
                return CorruptFileError(f"{path!r} row {reader.line_num}: {message}")

            for row in reader:
                if not row:
                    continue
                if len(row) != 4:
                    raise bad_row(f"malformed row {row}")
                try:
                    name, s, x, depth = row[0], int(row[1]), int(row[2]), float(row[3])
                except ValueError:
                    raise bad_row(
                        f"slice and column must be integers and depth a number, got {row}"
                    ) from None
                # A negative index would silently address a cell from the end.
                if s < 0 or x < 0:
                    raise bad_row(f"negative slice or column in {row}")
                if name not in cells:
                    raise bad_row(f"unknown boundary {name!r}")
                cells[name][(s, x)] = depth
    except OSError as exc:
        raise CorruptFileError(f"cannot read boundaries {path!r}: {exc}") from exc

    keys = cells[BOUNDARY_NAMES[0]].keys()
    if not keys:
        raise ValidationError(f"{path!r}: boundary CSV contains no rows")
    n_slices = max(k[0] for k in keys) + 1
    width = max(k[1] for k in keys) + 1
    surfaces = {}
    for name in BOUNDARY_NAMES:
        got = cells[name]
        if len(got) != n_slices * width:
            raise ValidationError(
                f"{path!r}: incomplete boundary set, {name} has {len(got)} of "
                f"{n_slices * width} cells"
            )
        arr = np.empty((n_slices, width), dtype=np.float64)
        for (s, x), depth in got.items():
            if s >= n_slices or x >= width:
                raise CorruptFileError(f"{path!r}: cell ({s},{x}) outside grid")
            arr[s, x] = depth
        surfaces[name] = arr
    # BoundarySet re-validates the ordering invariant and names the cell.
    return BoundarySet(surfaces)


def write_pgm(image: np.ndarray, path: str) -> None:
    """Write a [0, 1] float or boolean 2D array as a binary 8-bit PGM."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValidationError(f"PGM image must be 2D, got ndim={arr.ndim}")
    if arr.dtype == bool:
        gray = np.where(arr, 255, 0).astype(np.uint8)
    else:
        gray = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes(order="C"))


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
