"""A whole-image reference of `enface.segment_shadows`, kept as its oracle.

Each pixel's background is the explicit mean of its window over the image
with its edges replicated, contrast is max(0, (B - e) / max(B, 1e-6)), and
the shadow pixels above the threshold are grouped by a plain 8-connected
flood fill; components smaller than the minimum size are dropped.
"""

import numpy as np


def segment_shadows_reference(image, window, threshold, min_px):
    """The (mask, contrast) of `image` with the given (slices, columns)
    background window, contrast threshold and minimum component size."""
    e = np.asarray(image, dtype=np.float64)
    n_slices, width = e.shape
    ws, wx = window
    padded = np.pad(e, ((ws // 2, ws // 2), (wx // 2, wx // 2)), mode="edge")
    background = np.empty_like(e)
    for s, x in np.ndindex(e.shape):
        background[s, x] = padded[s:s + ws, x:x + wx].mean()
    contrast = np.maximum(0.0, (background - e) / np.maximum(background, 1e-6))

    shadow = contrast > threshold
    seen = np.zeros_like(shadow)
    mask = np.zeros_like(shadow)
    for start in zip(*np.nonzero(shadow)):
        if seen[start]:
            continue
        seen[start] = True
        component, stack = [], [start]
        while stack:
            s, x = stack.pop()
            component.append((s, x))
            for t in range(max(s - 1, 0), min(s + 2, n_slices)):
                for y in range(max(x - 1, 0), min(x + 2, width)):
                    if shadow[t, y] and not seen[t, y]:
                        seen[t, y] = True
                        stack.append((t, y))
        if len(component) >= min_px:
            for pixel in component:
                mask[pixel] = True
    return mask, contrast
