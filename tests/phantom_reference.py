"""The phantom tube and shadow passes as the package ran them before they
shared one chord walk, kept as the oracle of `kernels.raster_tubes` and
`kernels.apply_shadows`, which must write the same bytes.
"""

import math

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
