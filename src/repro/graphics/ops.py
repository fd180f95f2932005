"""Image adaptation operators used by the output plug-ins (paper §2.2).

An output plug-in "contains a code to convert bitmap images received from a
UniInt server to images that can be displayed on the screen of the target
output device".  Concretely that is some composition of:

* resampling to the device resolution (:func:`scale_nearest`,
  :func:`scale_box`, :func:`scale_to_fit`),
* colour reduction (:func:`to_grayscale`, :func:`quantize_levels`),
* dithering for 1-bit / 2-bit panels (:func:`ordered_dither`,
  :func:`floyd_steinberg`),
* bit-packing into the device's native framebuffer layout
  (:func:`pack_mono`, :func:`pack_gray4`).

Everything is numpy-vectorised except Floyd–Steinberg, whose error feedback
is inherently serial per pixel (its inner loop runs on plain floats).

The plug-ins redo only the part of the device image that a frame's damage
touches, which needs block-wise operators that are exact: any run of
:func:`box_average` output equals the same pixels of the full
:func:`scale_box` (its box sums are integers), :func:`ordered_dither`
takes the block's origin, and :func:`rgb_luma` matches the full plane for
whole rows.
"""

from __future__ import annotations

import numpy as np

from repro.graphics.bitmap import Bitmap
from repro.util.errors import GraphicsError

#: ITU-R BT.601 luma weights.
_LUMA = np.asarray([0.299, 0.587, 0.114])

#: 4x4 Bayer threshold matrix, values 0..15.
BAYER_4X4 = np.asarray(
    [
        [0, 8, 2, 10],
        [12, 4, 14, 6],
        [3, 11, 1, 9],
        [15, 7, 13, 5],
    ],
    dtype=np.float64,
)


# -- resampling -------------------------------------------------------------


def scale_nearest(bitmap: Bitmap, width: int, height: int) -> Bitmap:
    """Nearest-neighbour resample to exactly ``width`` x ``height``."""
    if width <= 0 or height <= 0:
        raise GraphicsError(f"scale target must be positive: {width}x{height}")
    src = bitmap.pixels
    ys = (np.arange(height) * bitmap.height) // height
    xs = (np.arange(width) * bitmap.width) // width
    return Bitmap.from_array(src[ys[:, None], xs[None, :]])


def box_edges(size: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    """Source span ``[lo[i], hi[i])`` that output pixel ``i`` averages.

    Resampling ``size`` source pixels to ``out`` output pixels gives output
    pixel ``i`` the interval between points ``i`` and ``i + 1`` of
    ``np.linspace(0, size, out + 1)``, widened to whole pixels (at least
    one).  Both arrays are non-decreasing, so the outputs whose spans meet
    a source interval form one contiguous run: that is what lets an output
    plug-in redo only its damage.
    """
    edges = np.linspace(0, size, out + 1)
    lo = np.floor(edges[:-1]).astype(np.intp)
    hi = np.maximum(np.ceil(edges[1:]).astype(np.intp), lo + 1)
    return lo, hi


def box_average(pixels: np.ndarray, rows: tuple[np.ndarray, np.ndarray],
                cols: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Mean of ``pixels`` over every box ``rows[i] x cols[j]``, rounded.

    ``rows`` and ``cols`` are ``(lo, hi)`` span arrays as returned by
    :func:`box_edges`, or any contiguous run of them.  Only the source
    block the spans cover is read.  The box sums are separable integer
    prefix sums (first down the rows, then across the columns), so they
    are exact and every pixel is the same whichever run it is computed in.
    """
    (y_lo, y_hi), (x_lo, x_hi) = rows, cols
    top, left = int(y_lo[0]), int(x_lo[0])
    block = pixels[top:int(y_hi[-1]), left:int(x_hi[-1])]
    h, w, c = block.shape
    down = np.zeros((h + 1, w, c), dtype=np.int64)
    np.cumsum(block, axis=0, dtype=np.int64, out=down[1:])
    bands = down[y_hi - top] - down[y_lo - top]
    across = np.zeros((len(y_lo), w + 1, c), dtype=np.int64)
    np.cumsum(bands, axis=1, out=across[:, 1:])
    sums = across[:, x_hi - left] - across[:, x_lo - left]
    areas = ((y_hi - y_lo)[:, None] * (x_hi - x_lo)[None, :]).astype(
        np.float64)
    return np.clip(np.rint(sums / areas[..., None]), 0, 255).astype(np.uint8)


def scale_box(bitmap: Bitmap, width: int, height: int) -> Bitmap:
    """Box-filter (area-average) resample; much better for downscaling text.

    Each output pixel is the rounded mean of its :func:`box_edges` span in
    both axes, computed by :func:`box_average` from exact integer sums.
    """
    if width <= 0 or height <= 0:
        raise GraphicsError(f"scale target must be positive: {width}x{height}")
    return Bitmap.from_array(box_average(
        bitmap.pixels, box_edges(bitmap.height, height),
        box_edges(bitmap.width, width)))


def scale_to_fit(bitmap: Bitmap, max_width: int, max_height: int,
                 smooth: bool = True) -> Bitmap:
    """Resample preserving aspect ratio to fit in a bounding box."""
    if max_width <= 0 or max_height <= 0:
        raise GraphicsError("fit box must be positive")
    ratio = min(max_width / bitmap.width, max_height / bitmap.height)
    width = max(1, int(bitmap.width * ratio))
    height = max(1, int(bitmap.height * ratio))
    if ratio == 1.0:
        return bitmap.copy()
    if smooth and ratio < 1.0:
        return scale_box(bitmap, width, height)
    return scale_nearest(bitmap, width, height)


# -- colour reduction -----------------------------------------------------------


def to_grayscale(bitmap: Bitmap) -> np.ndarray:
    """(H, W) float64 luma in 0..255."""
    return rgb_luma(bitmap.pixels)


def rgb_luma(pixels: np.ndarray) -> np.ndarray:
    """Luma of an (H, W, 3) array, as :func:`to_grayscale`.

    The product runs through BLAS one row at a time, and the last bit of a
    pixel's result can depend on the row's width.  A caller that refreshes
    part of a luma plane must therefore pass whole rows to match the plane
    it patches.
    """
    return pixels.astype(np.float64) @ _LUMA


def gray_bitmap(gray: np.ndarray) -> Bitmap:
    """Lift an (H, W) luma array back into an RGB bitmap (for previews)."""
    g8 = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    return Bitmap.from_array(np.repeat(g8[..., None], 3, axis=2))


def quantize_levels(gray: np.ndarray, levels: int) -> np.ndarray:
    """Quantise luma to ``levels`` evenly spaced values (no dithering)."""
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    steps = levels - 1
    return np.rint(gray / 255.0 * steps) * (255.0 / steps)


# -- dithering -----------------------------------------------------------------


def ordered_dither(gray: np.ndarray, levels: int = 2,
                   origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Bayer 4x4 ordered dither to ``levels`` grey levels.

    Fast and stable frame-to-frame (no crawling error patterns), which is
    why the PDA output plug-in prefers it for animation.  Each pixel
    depends only on its own luma and position, so a block whose top-left
    pixel sits at ``origin`` = (row, column) of a larger image dithers to
    exactly that image's dither of the same block.
    """
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    h, w = gray.shape
    oy, ox = origin
    bayer = BAYER_4X4[(oy + np.arange(h))[:, None] % 4,
                      (ox + np.arange(w))[None, :] % 4]
    threshold = (bayer + 0.5) / 16.0
    steps = levels - 1
    scaled = gray / 255.0 * steps
    dithered = np.floor(scaled + threshold)
    return np.clip(dithered, 0, steps) * (255.0 / steps)


def floyd_steinberg(gray: np.ndarray, levels: int = 2) -> np.ndarray:
    """Floyd–Steinberg error-diffusion dither to ``levels`` grey levels.

    Higher quality on static panels; the phone output plug-in uses it for
    its 1-bit screen.  Error feedback is serial by nature, so the inner
    loop runs on plain Python floats (an order of magnitude faster than
    per-element numpy indexing).
    """
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    steps = levels - 1
    scale = 255.0 / steps
    h, w = gray.shape
    work = gray.astype(np.float64).tolist()
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        row = work[y]
        out_row = out[y]
        below = work[y + 1] if y + 1 < h else None
        for x in range(w):
            old = row[x]
            quantum = round(old / scale)
            if quantum < 0:
                quantum = 0
            elif quantum > steps:
                quantum = steps
            new = quantum * scale
            out_row[x] = new
            err = old - new
            if x + 1 < w:
                row[x + 1] += err * 0.4375        # 7/16
            if below is not None:
                if x > 0:
                    below[x - 1] += err * 0.1875  # 3/16
                below[x] += err * 0.3125          # 5/16
                if x + 1 < w:
                    below[x + 1] += err * 0.0625  # 1/16
    return np.asarray(out)


# -- device bit-packing ------------------------------------------------------------


def pack_mono(gray: np.ndarray, threshold: float = 127.5) -> bytes:
    """Pack luma to 1 bit/pixel, MSB first, rows padded to whole bytes."""
    bits = (gray > threshold).astype(np.uint8)
    return np.packbits(bits, axis=1).tobytes()


def unpack_mono(data: bytes, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`pack_mono`; returns luma 0/255."""
    row_bytes = (width + 7) // 8
    if len(data) != row_bytes * height:
        raise GraphicsError(
            f"mono buffer is {len(data)} bytes, expected {row_bytes * height}"
        )
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :width]
    return bits.astype(np.float64) * 255.0


def pack_gray4(gray: np.ndarray) -> bytes:
    """Pack luma to 4 grey levels, 2 bits/pixel, rows padded to bytes."""
    levels = np.clip(np.rint(gray / 85.0), 0, 3).astype(np.uint8)
    h, w = levels.shape
    padded_w = (w + 3) // 4 * 4
    padded = np.zeros((h, padded_w), dtype=np.uint8)
    padded[:, :w] = levels
    packed = (padded[:, 0::4] << 6 | padded[:, 1::4] << 4
              | padded[:, 2::4] << 2 | padded[:, 3::4])
    return packed.tobytes()


def unpack_gray4(data: bytes, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`pack_gray4`; returns luma at the 4 levels."""
    row_bytes = (width + 3) // 4
    if len(data) != row_bytes * height:
        raise GraphicsError(
            f"gray4 buffer is {len(data)} bytes, expected {row_bytes * height}"
        )
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, row_bytes)
    levels = np.empty((height, row_bytes * 4), dtype=np.uint8)
    levels[:, 0::4] = rows >> 6
    levels[:, 1::4] = (rows >> 4) & 3
    levels[:, 2::4] = (rows >> 2) & 3
    levels[:, 3::4] = rows & 3
    return levels[:, :width].astype(np.float64) * 85.0


def mean_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute luma error between two images (dither quality metric)."""
    if a.shape != b.shape:
        raise GraphicsError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).mean())
