"""On-disk containers: raw grid files, boundary CSVs, and PGM images.

Grid values (volumes, masks, probability maps, en-face images) are stored
as a `<name>.json` header next to a `<name>.raw` little-endian payload in
slice-major, then depth, then column order. Intensities and probabilities
are 32-bit floats; masks are single 0/1 bytes. Boundaries travel as CSV
with one row per (boundary, slice, column).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from .errors import CorruptFileError, ValidationError
from .model import BOUNDARY_NAMES, GRID_TYPES, BoundarySet, Grid, OctVolume, ProbabilityMap3D, is_score_source

_FORMAT = "oct-cascade-grid"
_VERSION = 1


def _base_path(path: str) -> str:
    return path[: -len(".json")] if path.endswith(".json") else path


def remove_file(path: str) -> None:
    """Remove the entry at `path` unless it is a directory: a file, or a
    symlink itself, never its target. A missing entry is no error; a
    directory fails as the OSError naming it."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


@contextlib.contextmanager
def open_new(path: str, mode: str = "x", newline: str | None = None):
    """Open `path` for writing (mode "x" or "xb") as a new file, after
    `remove_file` clears the path: a symlink, hard link or read-only file
    there is replaced, not written through. On ext4 a file truncated and
    rewritten in place is written back at close, and the next truncate
    waits on that; an unlinked file's dirty pages are dropped unwritten.
    The new file reaches disk only when the kernel flushes it. A failure
    to write or close it removes the partial file and is the OSError
    naming `path`."""
    remove_file(path)
    fh = open(path, mode, newline=newline)
    try:
        with fh:
            yield fh
    except OSError as exc:  # from a write, or from the flush at close
        with contextlib.suppress(OSError):
            remove_file(path)
        exc.filename = exc.filename or path
        raise


def write_volume(value, path: str) -> None:
    """Write a grid value as `<path>.json` + `<path>.raw`; any other score
    source (see `is_score_source`) is written as its probability map, a
    B-scan at a time. Anything else is a ValidationError.

    `path` may name either the base or the .json file; the .raw sibling is
    derived. The parent directory must already exist. A failure to write
    is the OSError naming the file.
    """
    base = _base_path(path)
    if isinstance(value, GRID_TYPES):
        cls = type(value)
        # No copy: a mask's bool buffer is its 0/1 bytes, and the float data
        # already has the stored dtype and layout.
        data = value.data.view(np.uint8) if value.kind == "mask" else value.data
        payload = [np.ascontiguousarray(data, dtype=cls.stored_dtype())]
    elif is_score_source(value):
        cls = ProbabilityMap3D
        payload = (np.ascontiguousarray(value.read(s), dtype=cls.stored_dtype()) for s in range(value.dims[0]))
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__}")

    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": cls.kind,
        "dims": list(value.dims),
        "dtype": cls.stored_dtype().name,
        "byte_order": "little",
        "spacing": list(value.spacing) if getattr(value, "spacing", None) else None,
    }
    with open_new(base + ".json") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open_new(base + ".raw", "xb") as fh:
        fh.writelines(payload)


def _read_header(path: str) -> tuple[str, type[Grid], tuple[int, ...], list | None]:
    """The base path, grid type, dims and spacing of a checked grid header."""
    base = _base_path(path)
    name = base + ".json"
    try:
        with open(name) as fh:
            header = json.load(fh)
    except OSError as exc:
        raise CorruptFileError(f"cannot read grid header {name!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or not UTF-8
        raise CorruptFileError(f"malformed grid header {name!r}: {exc}") from exc

    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise CorruptFileError(f"{name!r} is not a grid container header")
    kind = header.get("kind")
    dims = header.get("dims")
    # JSON integers load as int; bool, float and str dims are corrupt.
    if not (isinstance(dims, list) and len(dims) in (2, 3)
            and all(type(d) is int and d >= 0 for d in dims)):
        raise CorruptFileError(f"{name!r}: dims {dims!r} are not 2 or 3 non-negative integers")
    # numpy refuses such dims even for an empty grid, whose payload is empty
    if math.prod(d for d in dims if d) > sys.maxsize // 4:
        raise CorruptFileError(f"{name!r}: dims {dims!r} are too large for any array")
    spacing = header.get("spacing")
    # An integer no float can hold would overflow where OctVolume converts it.
    if spacing is not None and not (
        isinstance(spacing, list) and len(spacing) == 3
        and all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max
                for v in spacing)
    ):
        raise CorruptFileError(f"{name!r}: spacing {spacing!r} is neither null nor 3 numbers")
    dtype = header.get("dtype")
    if header.get("byte_order") != "little":
        raise CorruptFileError(f"unsupported byte order {header.get('byte_order')!r}")
    # Each kind is stored in the one dtype write_volume gives it. A list, not
    # a set: a JSON list or object as kind or dtype cannot be hashed.
    if (kind, dtype) not in [(t.kind, t.stored_dtype().name) for t in GRID_TYPES]:
        raise CorruptFileError(f"unsupported kind/dtype {kind!r}/{dtype!r} in {base!r}")
    for cls in GRID_TYPES:
        if (cls.kind, cls.ndim) == (kind, len(dims)):
            return base, cls, tuple(dims), spacing
    raise CorruptFileError(f"{name!r}: no grid type holds a {len(dims)}D {kind} grid")


def grid_header(path: str) -> tuple[type[Grid], tuple[int, ...]]:
    """The type :func:`read_volume` returns for `path` and its dims, from its
    header alone."""
    _, cls, dims, _ = _read_header(path)
    return cls, dims


def read_volume(path: str) -> Grid:
    """Read a grid container written by :func:`write_volume`.

    The concrete type is recovered from the header's kind and rank; the
    type's invariants are re-validated so a corrupt payload cannot leak
    out, and a payload that fails them is named in the error.
    """
    base, cls, dims, spacing = _read_header(path)
    name = base + ".raw"
    stored = cls.stored_dtype()
    n_expected = math.prod(dims)
    # The file's size is checked before any of it is read, so a payload of
    # the wrong size costs no buffer of its size; a read that comes up short
    # (the file shrank meanwhile) fails the same check.
    try:
        with open(name, "rb") as fh:
            n_bytes = os.fstat(fh.fileno()).st_size
            if n_bytes == n_expected * stored.itemsize:
                data = np.empty(dims, dtype=stored)
                n_bytes = fh.readinto(data)
    except OSError as exc:
        raise CorruptFileError(f"cannot read grid payload {name!r}: {exc}") from exc
    if n_bytes != n_expected * stored.itemsize:
        raise CorruptFileError(
            f"{name!r}: payload has {n_bytes // stored.itemsize} elements, "
            f"header dims {dims} require {n_expected}"
        )

    try:
        if cls.kind == "mask":
            # Only a payload with a byte above 1 is searched for the first
            # one; a 0/1 payload is its own bool array.
            if data.max(initial=0) > 1:
                idx = tuple(int(i) for i in np.argwhere(data > 1)[0])
                raise ValidationError(f"mask byte {int(data[idx])} at voxel {idx} is not 0/1")
            return cls(data.view(bool))
        # The constructors' ValidationError already names the offending voxel.
        if cls is OctVolume:
            return OctVolume(data, spacing=None if spacing is None else tuple(spacing))
        return cls(data)
    except ValidationError as exc:
        raise type(exc)(f"{name!r}: {exc}") from None


def write_boundaries(b: BoundarySet, path: str) -> None:
    """Write a boundary set as CSV rows (boundary, slice, column, depth)."""
    # The bytes csv.writer would write (no field needs quoting, a float is
    # its repr, rows end in \r\n) in under half its time: each row is its
    # surface row's "\r\n<name>,<slice>" lead, a ",<column>," and the repr.
    columns = [f",{x}," for x in range(b[BOUNDARY_NAMES[0]].shape[1])]
    with open_new(path, newline="") as fh:
        fh.write("boundary,slice,column,depth")
        for name in BOUNDARY_NAMES:
            for s, row in enumerate(b[name].tolist()):
                lead = f"\r\n{name},{s}"
                fh.write("".join([lead + c + d for c, d in zip(columns, map(repr, row))]))
        fh.write("\r\n")


_HEADER = ["boundary", "slice", "column", "depth"]
# The name field is one character longer than the longest boundary name, so
# a longer name is cut to a string that names no boundary.
_ROW = np.dtype([
    ("name", f"U{max(map(len, BOUNDARY_NAMES)) + 1}"),
    ("slice", np.int64),
    ("column", np.int64),
    ("depth", np.float64),
])
# numpy's number parser skips these as white space where int() and float()
# refuse them, and the fixed-width name field drops a trailing NUL.
_UNSAFE = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_boundaries(path: str) -> BoundarySet:
    """Read a UTF-8 boundary CSV, re-validating completeness and ordering.

    The rows after the header are parsed in one `np.loadtxt` call and
    checked as whole arrays. A file they refuse is read again row by row to
    name the first faulty row.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorruptFileError(f"cannot read boundaries {path!r}: {exc}") from exc
    depths = _parse_boundaries(raw)
    if isinstance(depths, str):
        _refuse_boundaries(path, raw, depths)
    # BoundarySet re-validates the ordering invariant and names the cell.
    try:
        return BoundarySet(dict(zip(BOUNDARY_NAMES, depths)))
    except ValidationError as exc:
        raise type(exc)(f"{path!r}: {exc}") from None


def _parse_boundaries(raw: bytes) -> np.ndarray | str:
    """The (boundary, slice, column) depths of a well-formed boundary CSV,
    or why the one-pass parse refuses the file."""
    header = raw.partition(b"\n")[0]
    if b"\r" in header[:-1]:  # lines end in a lone \r
        raw, header = raw.replace(b"\r", b"\n"), header.partition(b"\r")[0]
    try:
        if next(csv.reader([header.decode("utf-8", "replace")]), None) != _HEADER:
            return "unexpected header"
    except csv.Error as exc:
        return str(exc)
    if len(raw.rstrip()) <= len(header):
        return "no rows after the header"
    if any(c in raw for c in _UNSAFE):
        return "a NUL or an ASCII separator character in the file"
    # A field over the csv module's limit leaves a block of half that many
    # bytes without a comma.
    block = csv.field_size_limit() // 2
    n_blocks = len(raw) // block
    commas = np.frombuffer(raw, np.uint8, count=n_blocks * block) == ord(",")
    if not commas.reshape(n_blocks, block).any(axis=1).all():
        return f"{block} bytes in a row without a comma"
    try:
        # numpy decodes one line at a time, so no decoded copy of the file is made
        rows = np.loadtxt(io.BytesIO(raw), dtype=_ROW, delimiter=",", comments=None,
                          quotechar='"', skiprows=1, encoding="utf-8", ndmin=1)
    except ValueError as exc:  # UnicodeDecodeError included
        return str(exc)

    s, x = rows["slice"], rows["column"]
    surface = np.full(rows.size, -1)
    for i, name in enumerate(BOUNDARY_NAMES):
        surface[rows["name"] == name] = i
    ilm = surface == 0
    if (surface < 0).any() or (s < 0).any() or (x < 0).any() or not ilm.any():
        return "a row names no boundary or a negative cell, or no ILM row"
    n_slices, width = int(s[ilm].max()) + 1, int(x[ilm].max()) + 1
    if (rows.size != len(BOUNDARY_NAMES) * n_slices * width
            or (s >= n_slices).any() or (x >= width).any()):
        return "rows do not fill the ILM grid"
    # As many rows as cells and every cell read: none is missing or repeated.
    cell = (surface * n_slices + s) * width + x
    seen = np.zeros(rows.size, dtype=bool)
    seen[cell] = True
    if not seen.all():
        return "a cell is missing or repeated"
    depths = np.empty((len(BOUNDARY_NAMES), n_slices, width))
    depths.reshape(-1)[cell] = rows["depth"]
    return depths


def _plain_number(field: str) -> bool:
    # int() and float() also read '_' separators and non-ASCII digits
    return field.strip().isascii() and "_" not in field


def _refuse_boundaries(path: str, raw: bytes, reason: str) -> NoReturn:
    """Raise the error of the first faulty row of a refused boundary CSV.

    Rows are checked in file order, as a row-by-row reader meets them, then
    the surfaces as a whole. A row that only the one-pass parse refuses (a
    repeated cell, a number it cannot read) is named once nothing else is
    wrong, and the parse's `reason` if no row is at fault.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"cannot read boundaries {path!r}: {exc}") from None
    cells: dict[str, dict[tuple[int, int], None]] = {n: {} for n in BOUNDARY_NAMES}
    late = None
    reader = csv.reader(io.StringIO(text, newline=""))

    def bad_row(message: str) -> CorruptFileError:
        return CorruptFileError(f"{path!r} row {reader.line_num}: {message}")

    try:
        header = next(reader, None)
        if header != _HEADER:
            raise CorruptFileError(f"{path!r}: unexpected boundary CSV header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise bad_row(f"malformed row {row}")
            try:
                name, s, x, _ = row[0], int(row[1]), int(row[2]), float(row[3])
            except ValueError:
                raise bad_row(
                    f"slice and column must be integers and depth a number, got {row}"
                ) from None
            # A negative index would silently address a cell from the end.
            if s < 0 or x < 0:
                raise bad_row(f"negative slice or column in {row}")
            if name not in cells:
                raise bad_row(f"unknown boundary {name!r}")
            if late is None and not all(map(_plain_number, row[1:])):
                late = bad_row(f"numbers must be ASCII digits without '_', got {row}")
            elif late is None and (s, x) in cells[name]:
                late = bad_row(f"repeated {name} cell ({s},{x})")
            cells[name][s, x] = None
    except csv.Error as exc:
        raise bad_row(str(exc)) from None

    keys = cells[BOUNDARY_NAMES[0]].keys()
    if not keys:
        raise ValidationError(f"{path!r}: boundary CSV contains no rows")
    n_slices = max(k[0] for k in keys) + 1
    width = max(k[1] for k in keys) + 1
    for name in BOUNDARY_NAMES:
        got = cells[name]
        if len(got) != n_slices * width:
            raise ValidationError(
                f"{path!r}: incomplete boundary set, {name} has {len(got)} of "
                f"{n_slices * width} cells"
            )
        for s, x in got:
            if s >= n_slices or x >= width:
                raise CorruptFileError(f"{path!r}: cell ({s},{x}) outside grid")
    raise late or CorruptFileError(f"{path!r}: {reason}")


def gray_levels(image: np.ndarray) -> np.ndarray:
    """The uint8 gray levels of a [0, 1] float array: rint(clip(v, 0, 1) * 255),
    in the array's own float precision."""
    return np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(image: np.ndarray, path: str) -> None:
    """Write a 2D image as a binary 8-bit PGM: a uint8 array as the gray
    levels it holds, a boolean or [0, 1] float one by `gray_levels` (which
    maps False and True to 0 and 255)."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValidationError(f"PGM image must be 2D, got ndim={arr.ndim}")
    gray = arr if arr.dtype == np.uint8 else gray_levels(arr)
    h, w = gray.shape
    with open_new(path, "xb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes(order="C"))
