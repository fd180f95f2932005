"""Plug-in model: the code devices upload into the proxy (paper §2.2).

"The input plug-in module contains a code to translate events received from
the input device to mouse or keyboard events.  The output plug-in module
contains a code to convert bitmap images received from a UniInt server to
images that can be displayed on the screen of the target output device."

Both plug-ins of one session share a :class:`SessionContext`: the output
plug-in records the :class:`ViewTransform` it used (scale + letterbox
offsets), and the input plug-in uses the *inverse* transform to map device
touch coordinates back into server framebuffer coordinates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.graphics import ops
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.proxy.descriptors import DeviceDescriptor, ScreenSpec
from repro.uip.messages import KeyEvent, PointerEvent
from repro.util.errors import PluginError

#: What input plug-ins produce: universal input events.
UniversalEvent = Union[KeyEvent, PointerEvent]

_IMAGE_HEADER = struct.Struct(">HHBI")
_FORMAT_CODES = {"mono1": 1, "gray4": 2, "rgb565": 3, "rgb888": 4}
_FORMAT_NAMES = {v: k for k, v in _FORMAT_CODES.items()}

#: Device-link frame tags (proxy -> device direction): a frame is one tag
#: byte followed by the payload.
LINK_TAG_IMAGE = 0x01
LINK_TAG_BELL = 0x02


@dataclass(frozen=True)
class DeviceImage:
    """A device-ready frame: packed pixels in the device's native format."""

    width: int
    height: int
    format: str
    data: bytes

    def encode(self) -> bytes:
        """Wire form for the proxy -> device link."""
        code = _FORMAT_CODES.get(self.format)
        if code is None:
            raise PluginError(f"unknown image format {self.format!r}")
        return _IMAGE_HEADER.pack(self.width, self.height, code,
                                  len(self.data)) + self.data

    @classmethod
    def decode(cls, blob: bytes) -> "DeviceImage":
        if len(blob) < _IMAGE_HEADER.size:
            raise PluginError("device image blob truncated")
        width, height, code, length = _IMAGE_HEADER.unpack_from(blob)
        data = blob[_IMAGE_HEADER.size:]
        if len(data) != length:
            raise PluginError(
                f"device image payload is {len(data)} bytes, header says "
                f"{length}")
        name = _FORMAT_NAMES.get(code)
        if name is None:
            raise PluginError(f"unknown image format code {code}")
        return cls(width, height, name, data)


@dataclass(frozen=True)
class ViewTransform:
    """How the server framebuffer maps onto a device screen.

    device = server * scale + offset;  the inverse maps device taps back.
    """

    scale: float
    offset_x: int
    offset_y: int
    server_width: int
    server_height: int

    def to_device(self, x: int, y: int) -> tuple[int, int]:
        return (int(x * self.scale) + self.offset_x,
                int(y * self.scale) + self.offset_y)

    def to_server(self, x: int, y: int) -> tuple[int, int]:
        if self.scale <= 0:
            raise PluginError(f"degenerate view scale {self.scale}")
        sx = round((x - self.offset_x) / self.scale)
        sy = round((y - self.offset_y) / self.scale)
        sx = max(0, min(self.server_width - 1, sx))
        sy = max(0, min(self.server_height - 1, sy))
        return (sx, sy)


@dataclass
class SessionContext:
    """State shared between the two plug-ins of one proxy session."""

    input_descriptor: Optional[DeviceDescriptor] = None
    output_descriptor: Optional[DeviceDescriptor] = None
    view: Optional[ViewTransform] = None
    #: Sticky modifier state for plug-ins that synthesise Shift, etc.
    modifiers: set = field(default_factory=set)


class InputPlugin:
    """Translates device-native events into universal input events.

    Subclasses implement :meth:`translate`; returning an empty list drops
    the event (e.g. an unrecognised voice utterance).
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        self.descriptor = descriptor
        self.context = context
        self.events_in = 0
        self.events_out = 0

    def translate(self, event: dict) -> Sequence[UniversalEvent]:
        raise NotImplementedError

    def process(self, event: dict) -> list[UniversalEvent]:
        """Bookkeeping wrapper around :meth:`translate`."""
        self.events_in += 1
        out = list(self.translate(event))
        self.events_out += len(out)
        return out


class OutputPlugin:
    """Converts server bitmaps into device-native images.

    Subclasses implement :meth:`transform`, and must keep
    ``context.view`` up to date so the input plug-in can invert the
    geometry.  Grey-screen plug-ins keep the frame's scaled luma plane
    between calls (:meth:`update_luma`) and redo only what ``dirty``
    touches.
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        if descriptor.screen is None:
            raise PluginError(
                f"device {descriptor.device_id!r} has no screen")
        self.descriptor = descriptor
        self.screen: ScreenSpec = descriptor.screen
        self.context = context
        self.frames_out = 0
        self.bytes_out = 0
        #: Box-filtered frame at the view's scale, its luma, and the view
        #: and per-axis source spans they were computed for.
        self.view: Optional[ViewTransform] = None
        self.luma = np.zeros((0, 0))
        self._scaled = np.zeros((0, 0, 3), dtype=np.uint8)
        self._spans: tuple = ()

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        """Convert ``frame`` into the device image.

        ``dirty`` bounds every pixel of ``frame`` that changed since this
        plug-in's previous call: the union of all damage in between, and
        the whole frame on the first call.  Outside it the frame equals
        the one last transformed.
        """
        raise NotImplementedError

    def process(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        """Bookkeeping wrapper around :meth:`transform`."""
        image = self.transform(frame, dirty)
        self.frames_out += 1
        self.bytes_out += len(image.data)
        return image

    def fit_view(self, frame: Bitmap) -> ViewTransform:
        """Standard letterboxed aspect-preserving fit; updates the context.

        Scale is clamped to 1.0: a screen larger than the server window
        shows the frame pixel-for-pixel, centred, instead of a blurry
        upscale past native resolution.
        """
        scale = min(1.0,
                    self.screen.width / frame.width,
                    self.screen.height / frame.height)
        out_w = max(1, int(frame.width * scale))
        out_h = max(1, int(frame.height * scale))
        view = ViewTransform(
            scale=scale,
            offset_x=(self.screen.width - out_w) // 2,
            offset_y=(self.screen.height - out_h) // 2,
            server_width=frame.width,
            server_height=frame.height,
        )
        self.context.view = view
        return view

    def update_luma(self, frame: Bitmap, dirty: Rect) -> tuple[slice, slice]:
        """Bring :attr:`luma` up to date with ``frame``; sets :attr:`view`.

        The frame is box-filtered to the letterboxed view size (pixel for
        pixel at scale 1).  Only the output rows and columns whose source
        boxes meet ``dirty`` are filtered again, and only those rows are
        grey-converted (whole rows, see :func:`ops.rgb_luma`).  A new view
        (the first frame, or a frame of another size) replaces
        :attr:`view` and refreshes the whole plane.  Returns the refreshed block as (rows, columns) of the
        plane; it is empty when ``dirty`` misses the frame.
        """
        view = self.fit_view(frame)
        if view != self.view:
            self.view = view
            height = max(1, int(frame.height * view.scale))
            width = max(1, int(frame.width * view.scale))
            self._spans = (ops.box_edges(frame.height, height),
                           ops.box_edges(frame.width, width))
            self._scaled = np.zeros((height, width, 3), dtype=np.uint8)
            self.luma = np.zeros((height, width))
            dirty = frame.bounds
        dirty = dirty.intersect(frame.bounds)
        if dirty.is_empty:
            return slice(0, 0), slice(0, 0)
        # the spans tile the frame in order: the outputs whose span meets
        # [start, stop) run from the first span ending past ``start`` to
        # the last one starting before ``stop``
        (y_lo, y_hi), (x_lo, x_hi) = self._spans
        rows = slice(int(np.searchsorted(y_hi, dirty.y, side="right")),
                     int(np.searchsorted(y_lo, dirty.y2)))
        cols = slice(int(np.searchsorted(x_hi, dirty.x, side="right")),
                     int(np.searchsorted(x_lo, dirty.x2)))
        self._scaled[rows, cols] = ops.box_average(
            frame.pixels, (y_lo[rows], y_hi[rows]), (x_lo[cols], x_hi[cols]))
        self.luma[rows] = ops.rgb_luma(self._scaled[rows])
        return rows, cols
