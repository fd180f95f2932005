"""Differential properties of the damage-bounded output plug-ins.

The PDA and phone plug-ins keep the scaled frame between calls and redo
only what each call's ``dirty`` rect touches.  Whatever the sequence of
damage, every image they produce must equal what a fresh plug-in makes of
the same frame in one full-frame call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CellPhone, Pda
from repro.graphics import Bitmap, Rect
from repro.proxy.plugins import SessionContext
from repro.util import Scheduler

DEVICES = {"pda": Pda, "phone": CellPhone}

#: Frame sizes: the home's own 480x360, odd sizes that downscale by
#: non-integer ratios, sizes that letterbox on either axis, and frames
#: smaller than the screen (the scale-1 path, centred).
frame_sizes = st.one_of(
    st.sampled_from([(480, 360), (481, 359), (480, 120), (90, 300),
                     (200, 100), (128, 96), (1, 1)]),
    st.tuples(st.integers(1, 520), st.integers(1, 400)),
)

#: One step: paint a rect (clipped to the frame) with a solid colour or
#: seeded noise, or switch to a new frame size first.
steps = st.tuples(
    st.booleans(),                                   # resize first?
    frame_sizes,
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
    st.one_of(st.tuples(st.integers(0, 255), st.integers(0, 255),
                        st.integers(0, 255)),
              st.integers(0, 2 ** 32 - 1)),
)


def make_plugin(kind):
    device = DEVICES[kind](kind, Scheduler())
    return device.output_plugin_factory(device.descriptor, SessionContext())


def paint(pixels, fx, fy, fw, fh, fill):
    height, width = pixels.shape[:2]
    x, y = int(fx * (width - 1)), int(fy * (height - 1))
    rect = Rect(x, y, max(1, int(fw * (width - x))),
                max(1, int(fh * (height - y))))
    block = pixels[rect.y:rect.y2, rect.x:rect.x2]
    if isinstance(fill, tuple):
        block[:] = fill
    else:
        block[:] = np.random.default_rng(fill).integers(
            0, 256, block.shape, dtype=np.uint8)
    return rect


class TestDamageBoundedTransforms:
    @given(st.sampled_from(sorted(DEVICES)), frame_sizes,
           st.lists(steps, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_every_image_equals_a_fresh_full_frame_transform(
            self, kind, size, sequence):
        plugin = make_plugin(kind)
        width, height = size
        pixels = np.random.default_rng(width * 7 + height).integers(
            0, 256, (height, width, 3), dtype=np.uint8)
        frame = Bitmap.from_array(pixels)
        plugin.process(frame, frame.bounds)
        for resize, new_size, fx, fy, fw, fh, fill in sequence:
            if resize and new_size != (width, height):
                # a frame of another size: only the painted rect is
                # passed as damage, and the plug-in must still redo it all
                width, height = new_size
                frame = Bitmap(width, height, fill=(40, 80, 120))
            dirty = paint(frame.pixels, fx, fy, fw, fh, fill)
            image = plugin.process(frame, dirty)
            fresh = make_plugin(kind)
            assert image == fresh.process(frame, frame.bounds)
            assert plugin.context.view == fresh.context.view

    @pytest.mark.parametrize("kind", sorted(DEVICES))
    def test_damage_outside_the_frame_changes_nothing(self, kind):
        plugin = make_plugin(kind)
        frame = Bitmap(480, 360, fill=(200, 10, 10))
        first = plugin.process(frame, frame.bounds)
        assert plugin.process(frame, Rect(500, 400, 10, 10)) == first
