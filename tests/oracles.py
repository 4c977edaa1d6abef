"""Slow exact reference implementations that the library's fast paths are
tested against.  They are kept here, not in the library, on purpose."""

from __future__ import annotations

import numpy as np

from vbesov.grid import GridSpec


def peetre_maximal_bruteforce(spec: GridSpec, g: np.ndarray, t: float,
                              a: float) -> np.ndarray:
    """max over grid y of g(y) / (1 + d(x,y)/t)^a with d the periodic distance.

    Exact O(M^2) maximum over all node pairs; 1-D uses a circulant gather,
    2-D falls back to row blocks.
    """
    g = np.asarray(g, dtype=float)
    if spec.dimension == 1:
        N = spec.points_per_axis
        off = np.arange(N) * spec.spacing
        d = np.minimum(off, spec.box_length - off)
        K = (1.0 + d / t) ** (-a)
        ar = np.arange(N, dtype=np.int64)
        W = K[(ar[None, :] - ar[:, None]) % N]
        W *= g.reshape(1, N)
        return W.max(axis=1)
    L = spec.box_length
    gf = g.reshape(-1)
    coords = spec.coords().reshape(-1, 2)
    out = np.empty(coords.shape[0])
    block = max(1, 2 ** 22 // coords.shape[0])
    for start in range(0, coords.shape[0], block):
        sl = slice(start, start + block)
        dx = np.abs(coords[sl, None, 0] - coords[None, :, 0])
        dy = np.abs(coords[sl, None, 1] - coords[None, :, 1])
        dx = np.minimum(dx, L - dx)
        dy = np.minimum(dy, L - dy)
        W = (1.0 + np.sqrt(dx ** 2 + dy ** 2) / t) ** (-a)
        out[sl] = (W * gf[None, :]).max(axis=1)
    return out.reshape(spec.shape)
