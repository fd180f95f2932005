"""PDA: 320x240 4-grey touchscreen over 802.11b (the era's Palm/iPAQ)."""

from __future__ import annotations

import numpy as np

from repro.graphics import ops
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.net.link import WIFI_11B
from repro.devices.base import InteractionDevice
from repro.proxy.descriptors import DeviceDescriptor, ScreenSpec
from repro.proxy.plugins import (
    DeviceImage,
    InputPlugin,
    OutputPlugin,
    SessionContext,
    UniversalEvent,
)
from repro.uip.messages import PointerEvent
from repro.util.errors import PluginError

PDA_WIDTH = 320
PDA_HEIGHT = 240


class PdaTouchPlugin(InputPlugin):
    """Maps stylus touches to pointer events via the inverse view transform."""

    def translate(self, event: dict) -> list[UniversalEvent]:
        if event.get("type") != "touch":
            return []
        view = self.context.view
        if view is None:
            return []  # nothing on screen yet; taps go nowhere
        action = event.get("action")
        if action not in ("down", "move", "up"):
            raise PluginError(f"bad touch action {action!r}")
        x, y = view.to_server(int(event["x"]), int(event["y"]))
        buttons = 0 if action == "up" else 1
        return [PointerEvent(buttons, x, y)]


class PdaOutputPlugin(OutputPlugin):
    """Letterboxed box-filter downscale, 4-grey ordered dither, 2-bit pack.

    Ordered dithering is chosen over error diffusion because its pattern is
    stable frame-to-frame — interactive updates do not shimmer.  It also
    makes every device pixel depend on its own source box alone, so each
    push re-dithers only the block its damage touched and repacks only
    those rows.
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        super().__init__(descriptor, context)
        #: The dithered screen (letterbox included) and its packed rows.
        self._dithered = np.zeros((self.screen.height, self.screen.width))
        self._packed = np.zeros((self.screen.height,
                                 (self.screen.width + 3) // 4),
                                dtype=np.uint8)

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        previous = self.view
        rows, cols = self.update_luma(frame, dirty)
        view = self.view
        if view is not previous:
            # a new view may move the letterbox: blank the screen;
            # update_luma refreshed the whole plane, so the block below
            # covers the picture
            self._dithered[:] = 0.0
            self._packed[:] = 0
        ys = slice(view.offset_y + rows.start, view.offset_y + rows.stop)
        xs = slice(view.offset_x + cols.start, view.offset_x + cols.stop)
        self._dithered[ys, xs] = ops.ordered_dither(
            self.luma[rows, cols], levels=4, origin=(rows.start, cols.start))
        self._packed[ys] = np.frombuffer(
            ops.pack_gray4(self._dithered[ys]), dtype=np.uint8).reshape(
                -1, self._packed.shape[1])
        return DeviceImage(self.screen.width, self.screen.height, "gray4",
                           self._packed.tobytes())


class Pda(InteractionDevice):
    """A stylus-driven PDA: both an input and an output device."""

    kind = "pda"
    input_plugin_factory = PdaTouchPlugin
    output_plugin_factory = PdaOutputPlugin

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=ScreenSpec(PDA_WIDTH, PDA_HEIGHT, "gray4"),
            input_modes=frozenset({"touch"}),
            link=WIFI_11B,
            tags=frozenset({"portable", "personal", "visual", "silent"}),
        )

    # -- user actions ---------------------------------------------------------

    def tap(self, x: int, y: int) -> None:
        """Stylus tap at device coordinates (x, y)."""
        self.send_event({"type": "touch", "action": "down", "x": x, "y": y})
        self.send_event({"type": "touch", "action": "up", "x": x, "y": y})

    def drag(self, points: list[tuple[int, int]]) -> None:
        """Stylus drag through the given device-coordinate points."""
        if not points:
            return
        first, *rest = points
        self.send_event({"type": "touch", "action": "down",
                         "x": first[0], "y": first[1]})
        for x, y in rest:
            self.send_event({"type": "touch", "action": "move",
                             "x": x, "y": y})
        last = points[-1]
        self.send_event({"type": "touch", "action": "up",
                         "x": last[0], "y": last[1]})
