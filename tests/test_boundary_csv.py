"""The one-pass boundary CSV reader against the row-by-row reader it replaced.

`oracle_read_boundaries` is that earlier reader, kept verbatim. On written
boundary sets both must give the same surfaces. On mutated files the new
reader must return what the oracle returns or refuse the file, and where
the oracle refuses it, refuse it with the same error. The inputs the
oracle accepted and the new reader refuses are a repeated cell, a number
int() and float() read but numpy does not (a '_' separator or a
non-ASCII digit), a lone carriage return after a line that ends in a
newline, and more than half the csv field limit of bytes without a
comma.
"""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_cascade.errors import CorruptFileError, OctCascadeError, ValidationError
from oct_cascade.fileio import read_boundaries, write_boundaries
from oct_cascade.model import BOUNDARY_NAMES, BoundarySet

HEADER = "boundary,slice,column,depth"
# what only the new reader refuses
ONLY_NEW = r"row \d+: (repeated|.*ASCII)|embedded newline"


def oracle_read_boundaries(path: str) -> BoundarySet:
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


def outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # the oracle lets csv and decoding errors escape
        return exc


def assert_agrees(path):
    expected = outcome(oracle_read_boundaries, str(path))
    got = outcome(read_boundaries, str(path))
    if isinstance(got, BoundarySet):
        assert isinstance(expected, BoundarySet), expected
        for name in BOUNDARY_NAMES:
            assert np.array_equal(got[name], expected[name])
        return got
    assert isinstance(got, OctCascadeError), repr(got)
    assert repr(str(path)) in str(got)
    if isinstance(expected, OctCascadeError) and " row " in str(expected):
        assert type(got) is type(expected) and str(got) == str(expected)
    elif isinstance(expected, OctCascadeError) and not re.search(ONLY_NEW, str(got)):
        # an invalid set of surfaces; the new reader adds the file's name
        assert type(got) is type(expected)
        assert str(got) in (str(expected), f"{str(path)!r}: {expected}")
    else:
        assert re.search(ONLY_NEW, str(got)), str(got)
    return got


def surfaces_strategy():
    depth = st.one_of(
        st.just(0.0),
        st.integers(0, 300).map(float),
        st.floats(0.0, 300.0, allow_nan=False, allow_infinity=False),
    )
    return st.tuples(st.integers(1, 3), st.integers(1, 5)).flatmap(
        lambda dims: st.lists(depth, min_size=4 * dims[0] * dims[1],
                              max_size=4 * dims[0] * dims[1]).map(
            lambda steps: np.cumsum(np.reshape(steps, (4, *dims)), axis=0)
        )
    )


@settings(max_examples=150)
@given(depths=surfaces_strategy())
def test_written_sets_read_back_equal(tmp_path_factory, depths):
    b = BoundarySet(dict(zip(BOUNDARY_NAMES, depths)))
    path = tmp_path_factory.mktemp("csv") / "b.csv"
    write_boundaries(b, str(path))
    got = assert_agrees(path)
    assert isinstance(got, BoundarySet)
    for name in BOUNDARY_NAMES:
        assert np.array_equal(got[name], b[name])


JUNK = ["x", "", "1.5", "1e3", "0x1", "1_0", "٣", "nan", "inf", " 7 ", "+3", "--1", "1 2",
        "9" * 20, '"2"', "　7"]
NAMES = ["ILMX", "INL_LOWERX", "INL_LOWER_EXTRA", "ilm", "", " ILM", "ILM ", '"BM"', "RPE_UPPER"]
CHARS = ['"', ",", "\x00", "\x1c", "\x1f", "\r", "\n", " ", "\t", "\x0c", "_", "-", ".", "e",
         "x", "٣", "　", " "]


@st.composite
def mutated_files(draw):
    n_slices, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rows = [f"{name},{s},{x},{float(2 * k + s + x / 4)!r}"
            for k, name in enumerate(BOUNDARY_NAMES)
            for s in range(n_slices) for x in range(width)]
    lines = [HEADER, *rows]
    eol = "\r\n"
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from([
            "junk", "delete", "duplicate", "shuffle", "blank", "quote", "eol", "header",
            "negative", "name", "char",
        ]))
        r = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        fields = lines[r].split(",")
        i = draw(st.integers(0, len(fields) - 1))
        if kind == "junk":
            fields[draw(st.integers(1, 3)) % len(fields)] = draw(st.sampled_from(JUNK))
        elif kind == "delete":
            del lines[r]
            continue
        elif kind == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[r])
            continue
        elif kind == "shuffle":
            lines[1:] = draw(st.permutations(lines[1:]))
            continue
        elif kind == "blank":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", '""'])))
            continue
        elif kind == "quote":
            fields[i] = f'"{fields[i]}"'
        elif kind == "eol":
            eol = draw(st.sampled_from(["\n", "\r"]))
            continue
        elif kind == "header":
            lines[0] = draw(st.sampled_from([
                "boundary,slice,column", "Boundary,slice,column,depth",
                '"boundary",slice,column,depth', "boundary,slice,column,depth,", "",
                "boundary;slice;column;depth",
            ]))
            continue
        elif kind == "negative":
            column = draw(st.integers(1, 2)) % len(fields)
            fields[column] = draw(st.sampled_from(["-1", "-2", "-0"]))
        elif kind == "name":
            fields[0] = draw(st.sampled_from(NAMES))
        else:
            text = lines[r]
            at = draw(st.integers(0, len(text)))
            lines[r] = text[:at] + draw(st.sampled_from(CHARS)) + text[at:]
            continue
        lines[r] = ",".join(fields)
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=400)
@given(text=mutated_files())
def test_mutated_files_agree_with_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "b.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_agrees(path)


def boundary_text(n_slices=2, width=2):
    rows = [f"{name},{s},{x},{float(2 * k)!r}" for k, name in enumerate(BOUNDARY_NAMES)
            for s in range(n_slices) for x in range(width)]
    return "\r\n".join([HEADER, *rows]) + "\r\n"


@pytest.mark.parametrize("old, new, error, message", [
    ("ILM,1,1,0.0", "ILM,1,1,0.0\r\nILM,1,1,0.0", CorruptFileError, "row 6: repeated ILM cell"),
    ("ILM,1,0,0.0", "ILM,0_1,0,0.0", CorruptFileError, "row 4: .*ASCII"),
    ("BM,0,1,6.0", "BM,0,1,6_0.0", CorruptFileError, "row 15: .*ASCII"),
    ("BM,0,1,6.0", "BM,0,١,6.0", CorruptFileError, "row 15: .*ASCII"),
    ("ILM,1,0,0.0", "ILM,1,0,0.0,", CorruptFileError, "row 4: malformed row"),
    ("BM,0,1,6.0", "XM,0,1,6.0", CorruptFileError, "row 15: unknown boundary 'XM'"),
    ("ILM,1,1,0.0", "ILM,1,1,0.0\x00", CorruptFileError, "row 5: slice and column must be"),
    ("ILM,1,1,0.0", "ILM,1,1,0.0\x1c", CorruptFileError, "row 5: slice and column must be"),
    (HEADER, HEADER.replace("boundary", "ILM\x00"), CorruptFileError, "unexpected .* header"),
    ("INL_LOWER,1,1,2.0", "INL_LOWER,3,1,2.0", CorruptFileError, r"cell \(3,1\) outside grid"),
    ("INL_LOWER,1,1,2.0\r\n", "", ValidationError, "INL_LOWER has 3 of 4 cells"),
], ids=["repeated", "underscore-int", "underscore-float", "arabic-digit", "extra-field",
        "unknown-name", "nul", "file-separator", "header-nul", "outside-grid",
        "incomplete"])
def test_refusals_name_the_row(tmp_path, old, new, error, message):
    text = boundary_text()
    assert old in text
    text = text.replace(old, new, 1)
    path = tmp_path / "b.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(error, match=message):
        read_boundaries(str(path))
    assert_agrees(path)


@pytest.mark.parametrize("content", [
    HEADER.encode() + b"\r\nILM,0,0,\xff\r\n",
    (boundary_text() + "ILM,0,0," + "0" * (csv.field_size_limit() + 1) + "\r\n").encode(),
    # valid, but over half the field limit of bytes without a comma
    (boundary_text() + "\r\n" * csv.field_size_limit()).encode(),
], ids=["not-utf8", "over-field-limit", "comma-free-block"])
def test_bad_bytes_are_corrupt_files(tmp_path, content):
    path = tmp_path / "b.csv"
    path.write_bytes(content)
    with pytest.raises(CorruptFileError, match=re.escape(repr(str(path)))):
        read_boundaries(str(path))
