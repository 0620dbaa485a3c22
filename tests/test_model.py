import numpy as np
import pytest

from oct_cascade.errors import ShapeMismatchError, ValidationError
from oct_cascade.model import (
    BoundarySet,
    EnFaceImage,
    OctVolume,
    PixelMask,
    ProbabilityMap3D,
    VoxelMask,
)


def valid_surfaces(n_slices=2, width=8):
    return {
        "ILM": np.full((n_slices, width), 2.0),
        "INL_LOWER": np.full((n_slices, width), 4.0),
        "RPE_UPPER": np.full((n_slices, width), 8.0),
        "BM": np.full((n_slices, width), 11.0),
    }


def test_volume_accepts_valid_data():
    v = OctVolume(np.zeros((2, 8, 8)), spacing=(30.0, 3.9, 11.0))
    assert v.dims == (2, 8, 8)
    assert v.data.dtype == np.float32
    assert v.spacing == (30.0, 3.9, 11.0)


def test_volume_rejects_out_of_range():
    data = np.zeros((2, 8, 8))
    data[1, 3, 4] = 1.5
    with pytest.raises(ValidationError, match=r"\(1, 3, 4\)"):
        OctVolume(data)


def test_volume_rejects_nan_and_small_dims():
    data = np.zeros((2, 8, 8))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        OctVolume(data)
    with pytest.raises(ValidationError):
        OctVolume(np.zeros((1, 4, 8)))


def test_volume_from_raw_normalizes_integer_sources():
    u8 = np.zeros((1, 8, 8), dtype=np.uint8)
    u8[0, 3, 3] = 255
    u8[0, 4, 4] = 51
    v = OctVolume.from_raw(u8)
    assert v.data[0, 3, 3] == 1.0
    assert v.data[0, 4, 4] == np.float32(51 / 255)
    u16 = np.full((1, 8, 8), 65535, dtype=np.uint16)
    assert OctVolume.from_raw(u16).data.max() == 1.0


def test_volume_data_is_immutable():
    v = OctVolume(np.zeros((2, 8, 8)))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 0.5


def test_boundary_set_ordering_enforced():
    surfaces = valid_surfaces()
    surfaces["INL_LOWER"][1, 3] = 1.0  # above the ILM
    with pytest.raises(ValidationError, match=r"slice=1, column=3"):
        BoundarySet(surfaces)


def test_boundary_set_requires_all_four():
    surfaces = valid_surfaces()
    del surfaces["BM"]
    with pytest.raises(ValidationError, match="BM"):
        BoundarySet(surfaces)


def test_boundary_set_shape_consistency():
    surfaces = valid_surfaces()
    surfaces["BM"] = np.full((2, 9), 11.0)
    with pytest.raises(ShapeMismatchError):
        BoundarySet(surfaces)


def test_boundary_check_against_volume():
    b = BoundarySet(valid_surfaces())
    b.check_against((2, 16, 8))
    with pytest.raises(ValidationError):
        b.check_against((2, 10, 8))  # BM=11 > height-1
    with pytest.raises(ShapeMismatchError):
        b.check_against((3, 16, 8))


def test_enface_and_probability_ranges():
    with pytest.raises(ValidationError):
        EnFaceImage(np.full((4, 4), 1.01))
    with pytest.raises(ValidationError):
        ProbabilityMap3D(np.full((2, 3, 4), -0.1))
    p = ProbabilityMap3D(np.full((2, 3, 4), 0.25))
    assert p.data.dtype == np.float32


def test_masks_cast_to_bool():
    m = VoxelMask(np.array([[[0, 1], [1, 0]]]))
    assert m.data.dtype == bool
    assert m.count() == 2
    pm = PixelMask(np.zeros((3, 4)))
    assert pm.shape == (3, 4)
    with pytest.raises(ValidationError):
        VoxelMask(np.zeros((2, 2)))


@pytest.mark.parametrize("cls, shape", [(VoxelMask, (2, 3, 4)), (PixelMask, (3, 4))])
def test_masks_freeze_a_bool_array_in_place(cls, shape):
    a = np.zeros(shape, dtype=bool)
    m = cls(a)
    assert m.data is a and not a.flags.writeable
    # any other dtype, or a strided view, is copied and the source left writable
    b = np.zeros(shape, dtype=np.uint8)
    assert not np.shares_memory(cls(b).data, b) and b.flags.writeable
    c = np.zeros(shape, dtype=bool)[..., ::-1]
    assert not np.shares_memory(cls(c).data, c) and c.flags.writeable
