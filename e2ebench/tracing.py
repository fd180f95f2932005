"""Span tracing from outside the program: wrap public entry points.

The benchmark's traced run replaces a fixed list of *public* functions
(see :data:`SPANS` and :data:`COUNTERS`) with timing wrappers for the
duration of the run and restores them afterwards.  Each call becomes a
span ``(span_id, parent_id, name, start_s, end_s, action_id)`` on the
wall clock; spans nest through a call stack, so a span's *self* time is
its duration minus the time its child spans cover.  Spans are kept in
memory (up to :data:`MAX_SPANS`; beyond that only the aggregates grow)
and written as JSONL when the run ends.

The wrappers live in the benchmark, not in ``src/``: the program is
measured as it ships.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Optional

#: Raw span records kept per run; aggregates keep counting past it.
MAX_SPANS = 200_000

#: (span name, module, owner, attribute): timed public entry points.
#: ``owner`` is a class name, or None for a module-level function.
SPANS = (
    ("devices.transform", "repro.proxy.plugins", "OutputPlugin", "process"),
    ("devices.translate", "repro.proxy.plugins", "InputPlugin", "process"),
    ("proxy.event", "repro.proxy.session", "ProxySession",
     "handle_device_event"),
    ("toolkit.render", "repro.toolkit.window", "UIWindow", "render"),
    ("toolkit.dispatch", "repro.toolkit.window", "UIWindow",
     "dispatch_key_event"),
    ("toolkit.dispatch", "repro.toolkit.window", "UIWindow",
     "dispatch_pointer"),
    ("windows.composite", "repro.windows.server", "DisplayServer",
     "composite"),
    ("graphics.diff", "repro.graphics.differ", "TileDiffer", "refine"),
    ("graphics.pack", "repro.graphics.pixelformat", "PixelFormat",
     "pack_array"),
    ("uip.encode", "repro.uip.encodings", None, "encode_rect"),
    ("uip.decode", "repro.uip.encodings", None, "decode_rect"),
    ("net.send", "repro.net.transport", "Transport", "send"),
    ("havi.send", "repro.havi.messaging", "MessageSystem", "send"),
    ("havi.fcm", "repro.havi.fcm", "Fcm", "handle_request"),
    ("havi.post", "repro.havi.events", "EventManager", "post"),
    ("app.submit", "repro.app.commands", "CommandSpine", "submit"),
    ("app.rebuild", "repro.app.application", "HomeApplianceApplication",
     "rebuild"),
    ("context.reselect", "repro.context.manager", "ContextManager",
     "reselect"),
)

#: Count-only wrappers: called too often (recursively) to time cheaply.
COUNTERS = (
    ("toolkit.paint_tree", "repro.toolkit.widget", "Widget", "paint_tree"),
)


def _owner(module_name: str, owner: Optional[str]):
    module = importlib.import_module(module_name)
    return module if owner is None else getattr(module, owner)


class Tracer:
    """Installs span wrappers; aggregates self time, calls and extras."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Per-span extras measured from arguments/results (bytes, pixels).
        self.extra: Counter = Counter()
        #: Current action id, stamped on every span (set by the workload).
        self.action = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for name, module, owner, attr in SPANS:
            self._patch(_owner(module, owner), attr, self._timed(name))
        for name, module, owner, attr in COUNTERS:
            self._patch(_owner(module, owner), attr, self._counted(name))
        return self

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, target, attr: str, make) -> None:
        original = target.__dict__[attr]
        self._patches.append((target, attr, original))
        setattr(target, attr, make(original))

    def _timed(self, name: str):
        extra = _EXTRAS.get(name)
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans

        def make(original):
            def span(*args, **kwargs):
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else 0
                frame = [span_id, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    self_s[name] += duration - frame[1]
                    calls[name] += 1
                    if stack:
                        stack[-1][1] += duration
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, name, start, end,
                                      self.action))
                    else:
                        self.spans_dropped += 1
                if extra is not None:
                    extra(self.extra, args, result)
                return result
            span.__wrapped__ = original
            return span
        return make

    def _counted(self, name: str):
        calls = self.calls

        def make(original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            counted.__wrapped__ = original
            return counted
        return make

    # -- results ----------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end, action in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "action": action}) + "\n")


def _transform_extra(extra: Counter, args, result) -> None:
    _plugin, frame, dirty = args[:3]
    extra["devices.frame_bytes"] += len(result.data)
    extra["proxy.dirty_px"] += dirty.area
    extra["proxy.frame_px"] += frame.width * frame.height


def _render_extra(extra: Counter, args, result) -> None:
    extra["toolkit.render_px"] += result.area


_EXTRAS = {
    "devices.transform": _transform_extra,
    "toolkit.render": _render_extra,
}
