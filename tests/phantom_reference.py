"""Earlier forms of phantom passes, kept as oracles that the package must
match byte for byte: the tube and shadow passes as they ran before they
shared one chord walk (for `kernels.raster_tubes` and
`kernels.apply_shadows`), and the layer image as a summed layer index and a
level gather (for `phantom._layer_cake`).
"""

import math

import numpy as np

from oct_cascade.phantom import _RPE_CAP_VOXELS, _RPE_TAIL_FACTOR

# Two passes: all tube interiors are written first, then each tube darkens
# every voxel below its bottom in its footprint columns, skipping voxels
# inside any vessel. Attenuation is strongest on the axis and fades to
# nothing just outside the footprint:
#   factor(dx) = 1 - (1 - atten) * (1 - (|dx| / (r + 0.5))^4)
# Loop order (vessel, slice, column ascending) fixes the multiply order, so
# overlapping shadows are reproducible bit for bit.

def raster_tubes(data, vmask, zc, xc, radius, level):
    """Write tube interiors (value `level`) and their voxel mask in place."""
    radius, level = float(radius), float(level)
    n_vessels, n_slices = zc.shape
    height = data.shape[1]
    width = data.shape[2]
    r2 = radius * radius
    for v in range(n_vessels):
        for s in range(n_slices):
            zv = zc[v, s]
            xv = xc[v, s]
            x0 = max(int(math.ceil(xv - radius)), 0)
            x1 = min(int(math.floor(xv + radius)), width - 1)
            for x in range(x0, x1 + 1):
                dd = r2 - (x - xv) * (x - xv)
                if dd < 0.0:
                    continue
                h = math.sqrt(dd)
                z0 = max(int(math.ceil(zv - h)), 0)
                z1 = min(int(math.floor(zv + h)), height - 1)
                if z1 < z0:
                    continue
                data[s, z0 : z1 + 1, x] = level
                vmask[s, z0 : z1 + 1, x] = True


def apply_shadows(data, vmask, zc, xc, radius, atten):
    """Darken all non-vessel voxels below each tube in its footprint columns."""
    radius, atten = float(radius), float(atten)
    n_vessels, n_slices = zc.shape
    height = data.shape[1]
    width = data.shape[2]
    r2 = radius * radius
    edge = radius + 0.5
    for v in range(n_vessels):
        for s in range(n_slices):
            zv = zc[v, s]
            xv = xc[v, s]
            x0 = max(int(math.ceil(xv - radius)), 0)
            x1 = min(int(math.floor(xv + radius)), width - 1)
            for x in range(x0, x1 + 1):
                dd = r2 - (x - xv) * (x - xv)
                if dd < 0.0:
                    continue
                h = math.sqrt(dd)
                if int(math.floor(zv + h)) < int(math.ceil(zv - h)):
                    continue
                zb = max(min(int(math.floor(zv + h)), height - 1) + 1, 0)
                if zb >= height:
                    continue
                t = abs(x - xv) / edge
                factor = 1.0 - (1.0 - atten) * (1.0 - t * t * t * t)
                col = data[s, zb:, x]
                keep = ~vmask[s, zb:, x]
                col[keep] = col[keep] * factor


def layer_cake(cfg, b, s):
    """B-scan `s` of the layered anatomy, (1, height, width) float64."""
    _, height, _ = cfg.dims
    z = np.arange(height, dtype=np.float64)[None, :, None]
    ilm = b["ILM"][s, None, None, :]
    inl = b["INL_LOWER"][s, None, None, :]
    rpe = b["RPE_UPPER"][s, None, None, :]
    bm = b["BM"][s, None, None, :]
    layer_index = (
        (z >= ilm).astype(np.int8)
        + (z >= inl).astype(np.int8)
        + (z >= rpe).astype(np.int8)
        + (z > bm).astype(np.int8)
    )
    levels = np.array(
        [
            cfg.layer_levels["vitreous"],
            cfg.layer_levels["inner_retina"],
            cfg.layer_levels["middle_retina"],
            cfg.layer_levels["rpe"],
            cfg.layer_levels["choroid"],
        ],
        dtype=np.float64,
    )
    data = levels[layer_index]
    rpe_tail = (layer_index == 3) & (z >= rpe + _RPE_CAP_VOXELS)
    data[rpe_tail] = cfg.layer_levels["rpe"] * _RPE_TAIL_FACTOR
    return data
