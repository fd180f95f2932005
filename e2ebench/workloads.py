"""The seeded workloads, driven through the program's public API.

Each workload runs *episodes*: a fresh home is built (timed as set-up),
then driven by a script generated from ``random.Random((seed, episode))``.
Every action is one the script expects to have a visible effect, and the
effect is checked right after it; a miss is counted as a failure.

* :class:`ResidentRoam` — closed loop, one resident.  A 5-appliance home
  with PDA, cell phone, IR remote, voice mic, TV panel and wall display.
  The resident tours four situations (sofa, kitchen, bedroom, outside),
  so the context manager hands the session to remote+TV panel,
  mic+wall display, PDA+PDA and phone+phone in turn, and acts through
  whatever input is selected.
* :class:`AdaptiveLinks` — open loop in simulated time.  A
  ``HomeApplianceApplication`` on a ``UniIntServer(link_adaptive=True)``
  serving thin ``UniIntClient``s on Ethernet, Bluetooth 1.1 and 9600 bps
  cellular, under seeded API writes, slider-style bursts that coalesce,
  a descriptor-only appliance plugged in and out, tab switches, and a
  roaming client that re-attaches on alternating bearers.

All legs are in-process pipes on one virtual clock: no OS connections.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy
from repro import Home
from repro.app.application import HomeApplianceApplication
from repro.app.commands import CommandState
from repro.appliances import (
    AirConditioner,
    Amplifier,
    DimmableLight,
    Refrigerator,
    Television,
)
from repro.context import Activity, UserSituation
from repro.context.preferences import PreferenceStore
from repro.devices import (
    CellPhone,
    Pda,
    RemoteControl,
    TvDisplay,
    VoiceInput,
    WallDisplay,
)
from repro.havi import HomeNetwork
from repro.net import BLUETOOTH_1, CELLULAR_PDC, ETHERNET_100, make_pipe
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import TabPanel, UIWindow
from repro.toolkit.widgets import ToggleButton
from repro.util import Scheduler
from repro.windows import DisplayServer

#: The permanent appliances of every workload's home.
APPLIANCES = (
    ("TV", Television),
    ("Lamp", DimmableLight),
    ("AC", AirConditioner),
    ("Amp", Amplifier),
    ("Fridge", Refrigerator),
)

#: The hot-plugged descriptor-only appliance (never a command target).
HOTPLUG_NAME = "Pantry"

#: Capability kinds the open-loop workloads write (all idempotent sets).
WRITABLE_KINDS = ("switch", "range", "choice", "number")

#: Capabilities the open-loop writers leave alone: ``power`` stays on
#: (the other verbs require it) and ``mute`` is cleared as a side effect
#: of any non-zero ``volume.set``, so its last write is not its final state.
UNWRITTEN = ("power", "mute")


# -- shared results ------------------------------------------------------------


@dataclass
class EpisodeResult:
    """What one episode measured and checked."""

    setup_s: float = 0.0
    #: Wall seconds of each step of the measured phase (a closed-loop
    #: action or handoff, an open-loop stretch up to the next due
    #: action), checks excluded; the count is fixed by the seed.
    steps_s: list = field(default_factory=list)
    #: Simulated seconds the measured phase advanced.
    sim_s: float = 0.0
    actuation_s: list = field(default_factory=list)
    sim_latency_s: list = field(default_factory=list)
    handoff_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    voice_misses: int = 0
    #: Open-loop writes left untimed because a second write to the same
    #: widget, or a tab switch, came before the screen was composited.
    superseded: int = 0
    counters: dict = field(default_factory=dict)
    #: Deterministic outputs (virtual-clock latencies, pipe bytes,
    #: command journal) for the same-seed-same-output check.
    deterministic: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def digest(self) -> str:
        blob = json.dumps(self.deterministic, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def episode_rng(seed: int, episode: int, workload: str) -> random.Random:
    return random.Random(repr((workload, seed, episode)))


def _tabs(window: UIWindow) -> Optional[TabPanel]:
    root = window.root
    if isinstance(root, TabPanel):
        return root
    if root is not None:
        found = root.find("appliance-tabs")
        if isinstance(found, TabPanel):
            return found
    return None


def _shown_guid(app: HomeApplianceApplication) -> Optional[str]:
    """GUID of the appliance on the view's active tab."""
    tabs = _tabs(app.window)
    if tabs is None or not 0 <= tabs.active < len(app.appliances):
        return None
    return app.appliances[tabs.active].guid


def _visible(widget) -> bool:
    node = widget
    while node is not None:
        if not node.visible:
            return False
        node = node.parent
    return True


def _fcm_of(appliance, fcm_type: str):
    for fcm in appliance.dcm.fcms:
        if fcm.fcm_type.value == fcm_type:
            return fcm
    raise LookupError(f"{appliance.name} has no {fcm_type} FCM")


def _power_on(submit: Callable, app: HomeApplianceApplication) -> list:
    """Power every appliance that has a power switch (through the API)."""
    commands = []
    for appliance in app.appliances:
        for handle in appliance.fcms:
            descriptor = handle.descriptor
            if descriptor is None:
                continue
            if "power.set" in descriptor.commands():
                commands.append(submit(appliance, handle, "power.set",
                                       {"on": True}))
    return commands


def _writable(app: HomeApplianceApplication, names) -> list:
    """(appliance name, guid, FcmHandle, Capability) for churn targets."""
    out = []
    for appliance in app.appliances:
        if appliance.name not in names:
            continue
        for handle in appliance.fcms:
            if handle.descriptor is None:
                continue
            for cap in handle.descriptor.capabilities:
                if (cap.kind in WRITABLE_KINDS and not cap.read_only
                        and cap.command and cap.name not in UNWRITTEN):
                    out.append((appliance.name, appliance.guid, handle, cap))
    return out


def _new_value(rng: random.Random, cap, current):
    """A value for ``cap`` different from ``current``."""
    if cap.kind == "switch":
        return not bool(current)
    if cap.kind == "choice":
        return rng.choice([c for c in cap.choices if c != current])
    step = cap.step or 1
    values = [v for v in range(int(cap.minimum), int(cap.maximum) + 1,
                               int(step)) if v != current]
    return rng.choice(values)


def _journal(log) -> list:
    return [(c.opcode, c.origin, c.state.value, c.status,
             sorted(c.payload.items())) for c in log]


def _check_journal(result: EpisodeResult, log) -> None:
    terminal = sum(log.terminal.values())
    if terminal != log.submitted:
        result.fail(f"command log: {terminal} terminal of "
                    f"{log.submitted} submitted")


def _check_mirror(result: EpisodeResult, label: str, mirror, framebuffer,
                  corrupt: bool) -> None:
    if corrupt:
        mirror.pixels[0, 0] ^= 0xFF
    if mirror != framebuffer:
        result.fail(f"{label}: mirror differs from its surface")


# -- open-loop visibility probes ------------------------------------------------


#: Capability kinds whose own widget shows the value written (a
#: ``number`` capability is an input-only text field: its writes are
#: verified on the FCM but have nothing on screen to probe).
SHOWN_KINDS = ("switch", "range", "choice")


def widget_id(handle, cap) -> str:
    return f"{handle.guid_prefix}.{handle.fcm_type}.{cap.name}"


class VisibilityProbes:
    """Follows each API write with an on-screen widget to every client.

    1. The FCM's ``fcm.state`` event lands while the view's active tab
       shows the appliance: a probe opens on the write's widget.
    2. The view's next ``DisplayServer.composite`` must change that
       widget's pixels, or the write is a miss.  Every update a session
       sends afterwards carries the change.
    3. A client holds the change once its ``updates_received`` passes the
       mark its session had at that composite.

    Per probe, ``first_wall_s`` is the wall time from the submit to the
    first client holding the change, and ``sim_s`` the simulated time to
    the last.  A probe still open at the end is a miss.  Two writes to
    one widget between two composites, or a tab switch before the
    composite, leave nothing to time: those probes are ``superseded``.
    """

    def __init__(self, scheduler: Scheduler, network: HomeNetwork,
                 app: HomeApplianceApplication, display: DisplayServer,
                 legs: list) -> None:
        """``legs``: (ServerSession, UniIntClient) pairs."""
        self.scheduler = scheduler
        self.app = app
        self.display = display
        self.legs = legs
        #: (guid, key) -> deque of (value, widget id, sim s, wall s).
        self._expected: dict[tuple, deque] = defaultdict(deque)
        self._awaiting: list[dict] = []
        self._waiting = [deque() for _ in legs]
        #: Every probe that reached a composite, in creation order.
        self.probes: list[dict] = []
        self.misses: list[str] = []
        self.superseded = 0
        self._network = network
        self._sub = network.events.subscribe("fcm.state.", self._on_state)
        self._composite = display.composite
        display.composite = self._hooked_composite
        for index, (_session, client) in enumerate(legs):
            self._hook_client(index, client)

    def close(self) -> None:
        self._network.events.unsubscribe(self._sub)
        self.display.composite = self._composite

    def expect(self, guid: str, key: str, value, widget: str) -> None:
        self._expected[(guid, key)].append(
            (value, widget, self.scheduler.now(), time.perf_counter()))

    def _on_state(self, event) -> None:
        payload = event.payload
        key = (payload.get("device_guid"), payload.get("key"))
        queue = self._expected.get(key)
        if not queue:
            return
        # superseded writes never reach the FCM: skip past them
        while queue and queue[0][0] != payload.get("value"):
            queue.popleft()
        if not queue:
            return
        _, widget, sim0, wall0 = queue.popleft()
        if _shown_guid(self.app) != key[0]:
            return
        clash = [p for p in self._awaiting if p["key"] == key]
        if clash:
            for probe in clash:
                self._awaiting.remove(probe)
            self.superseded += len(clash) + 1
            return
        self._awaiting.append({"key": key, "widget": widget, "sim0": sim0,
                               "wall0": wall0, "first_wall_s": None,
                               "sim_s": None, "legs": len(self.legs)})

    def _widget_pixels(self, probe: dict):
        widget = self.app.window.root.find(probe["widget"])
        if widget is None or not _visible(widget):
            return None
        rect = widget.abs_rect().intersect(self.display.framebuffer.bounds)
        return rect, self.display.framebuffer.view(rect).copy()

    def _hooked_composite(self):
        waiting, self._awaiting = self._awaiting, []
        before = [self._widget_pixels(probe) for probe in waiting]
        damage = self._composite()
        for probe, shown in zip(waiting, before):
            if shown is None:
                self.superseded += 1  # the tab moved away first
                continue
            rect, pixels = shown
            if numpy.array_equal(self.display.framebuffer.view(rect),
                                 pixels):
                self.misses.append(f"{probe['key'][1]}: widget "
                                   f"{probe['widget']} did not change")
                continue
            self.probes.append(probe)
            for (session, _client), queue in zip(self.legs, self._waiting):
                queue.append((session.updates_sent, probe))
        return damage

    def _hook_client(self, index: int, client: UniIntClient) -> None:
        on_update = client.on_update
        queue = self._waiting[index]

        def hooked_update(region):
            if on_update is not None:
                on_update(region)
            while queue and client.updates_received > queue[0][0]:
                self._leg_done(queue.popleft()[1])

        client.on_update = hooked_update

    def _leg_done(self, probe: dict) -> None:
        if probe["first_wall_s"] is None:
            probe["first_wall_s"] = time.perf_counter() - probe["wall0"]
        probe["legs"] -= 1
        if probe["legs"] == 0:
            probe["sim_s"] = self.scheduler.now() - probe["sim0"]

    def settle(self, result: EpisodeResult) -> None:
        """Move the samples into ``result``; fail every miss."""
        for miss in self.misses:
            result.fail(miss)
        for probe in self._awaiting:
            result.fail(f"{probe['key'][1]}: no composite after the write")
        for probe in self.probes:
            if probe["legs"]:
                result.fail(f"{probe['key'][1]}: {probe['legs']} client(s) "
                            "never showed the write")
            else:
                result.actuation_s.append(probe["first_wall_s"])
                result.sim_latency_s.append(probe["sim_s"])
        result.superseded = self.superseded


# -- workload base ----------------------------------------------------------------


class Workload:
    """One workload: ``episode(seed, index)`` builds a fresh home and
    drives it; ``tiny`` selects a harness-check size."""

    name = "base"

    def parameters(self) -> dict:
        raise NotImplementedError

    def episode(self, seed: int, index: int, tracer=None,
                corrupt_mirror: bool = False) -> EpisodeResult:
        raise NotImplementedError


def _set_action(tracer, action: int) -> None:
    if tracer is not None:
        tracer.action = action


# -- resident_roam ------------------------------------------------------------------


def _roam_preferences() -> PreferenceStore:
    """Bedroom: the PDA in hand; outside: only the phone."""
    prefs = PreferenceStore(user="resident")
    prefs.rule("reading in bed with the PDA",
               lambda s: s.location == "bedroom", pda=3.0)
    prefs.rule("out of the house: the phone",
               lambda s: s.location == "outside", phone=4.0)
    return prefs


#: (stop name, situation, expected input, expected output).
ROAM_STOPS = (
    ("sofa", UserSituation.on_the_sofa(), "remote", "tv-panel"),
    ("kitchen", UserSituation.cooking(), "mic", "wall"),
    ("bedroom", UserSituation(location="bedroom", activity=Activity.READING,
                              seated=True), "pda", "pda"),
    ("outside", UserSituation(location="outside"), "phone", "phone"),
)

#: Per input device: which native input means next / activate / left /
#: right.
ROAM_KEYS = {
    "remote": {"next": "next", "ok": "ok", "left": "left", "right": "right"},
    "phone": {"next": "*", "ok": "5", "left": "4", "right": "6"},
    "mic": {"next": "next", "ok": "select", "left": "left",
            "right": "right"},
}


class ResidentRoam(Workload):
    """Closed loop: act, wait for quiescence, check, repeat."""

    name = "resident_roam"

    def __init__(self, tiny: bool = False) -> None:
        self.laps = 1 if tiny else 2
        # unequal stops keep the latency percentiles inside one device's
        # cluster (median: TV panel, p95: phone) instead of on the edge
        # between two clusters, where they would jump from seed to seed
        self.actions_per_stop = ({"sofa": 2, "kitchen": 2, "bedroom": 2,
                                  "outside": 1} if tiny else
                                 {"sofa": 10, "kitchen": 8, "bedroom": 5,
                                  "outside": 3})
        self.voice_accuracy = 0.95

    def parameters(self) -> dict:
        return {"appliances": [n for n, _ in APPLIANCES],
                "devices": ["pda", "phone", "remote", "mic", "tv-panel",
                            "wall"],
                "laps_per_episode": self.laps,
                "stops": [s[0] for s in ROAM_STOPS],
                "actions_per_stop": self.actions_per_stop,
                "voice_accuracy": self.voice_accuracy,
                "screen": [480, 360]}

    def _build(self, rng_seed: int):
        home = Home(width=480, height=360, preferences=_roam_preferences())
        for name, cls in APPLIANCES:
            home.add_appliance(cls(name))
        home.settle()
        app = home.app
        _power_on(lambda a, h, op, p: home.submit_command(a.name, op, p),
                  app)
        home.settle()
        s = home.scheduler
        devices = {
            "pda": Pda("pda", s, seed=rng_seed),
            "phone": CellPhone("phone", s, seed=rng_seed),
            "remote": RemoteControl("remote", s, seed=rng_seed),
            "mic": VoiceInput("mic", s, seed=rng_seed,
                              accuracy=self.voice_accuracy),
            "tv-panel": TvDisplay("tv-panel", s, seed=rng_seed),
            "wall": WallDisplay("wall", s, seed=rng_seed),
        }
        for device in devices.values():
            home.add_device(device, reselect=False)
        return home, devices

    def episode(self, seed: int, index: int, tracer=None,
                corrupt_mirror: bool = False) -> EpisodeResult:
        rng = episode_rng(seed, index, self.name)
        result = EpisodeResult()
        # set-up always happens on the sofa, so every episode sets up the
        # same devices (the start stop alone moved set-up time by 2x);
        # then every lap visits all four stops, so each output device is
        # handed the session the same number of times in every episode
        tour: list = [ROAM_STOPS[0]]
        for _ in range(self.laps):
            lap = list(ROAM_STOPS)
            rng.shuffle(lap)
            if lap[0] is tour[-1]:
                lap.reverse()
            tour.extend(lap)

        start = time.perf_counter()
        home, devices = self._build(rng.randrange(1 << 30))
        user = home.default_user
        frame_log = {"t": None}

        def note_frame(_image):
            frame_log["t"] = home.scheduler.now()

        for device in devices.values():
            if device.descriptor.is_output:
                device.on_frame = note_frame
        user.set_situation(tour[0][1])
        home.settle()
        result.setup_s = time.perf_counter() - start
        self._check_stop(result, user, tour[0], devices)

        sim0 = home.scheduler.now()
        action = 0
        for stop in tour[1:]:
            action += 1
            _set_action(tracer, action)
            t0 = time.perf_counter()
            record = user.set_situation(stop[1])
            home.settle()
            result.steps_s.append(time.perf_counter() - t0)
            self._check_stop(result, user, stop, devices)
            result.attempted += 1
            if record.latency_s is None:
                result.fail(f"handoff to {stop[0]}: no first frame")
            else:
                result.handoff_s.append(record.latency_s)
            done = 0
            while done < self.actions_per_stop[stop[0]]:
                action += 1
                _set_action(tracer, action)
                # a misheard word is said again (a fresh action is planned
                # from whatever the miss left on screen)
                done += self._act(rng, home, devices, stop, result,
                                  frame_log)
        result.sim_s = home.scheduler.now() - sim0

        _check_mirror(result, "resident", user.session.upstream.framebuffer,
                      user.display.framebuffer, corrupt_mirror)
        _check_journal(result, home.command_log)
        result.counters = _home_counters(home)
        result.deterministic = {
            "sim_latency_s": [round(x, 9) for x in result.sim_latency_s],
            "handoff_s": [round(x, 9) for x in result.handoff_s],
            "device_bytes": {d.device_id: d.link_stats.bytes_received
                             for d in devices.values()},
            "journal": _journal(home.command_log),
        }
        return result

    def _check_stop(self, result, user, stop, devices) -> None:
        _, _, want_in, want_out = stop
        if (user.current_input, user.current_output) != (want_in, want_out):
            result.fail(f"stop {stop[0]}: selected "
                        f"{user.current_input}/{user.current_output}, "
                        f"expected {want_in}/{want_out}")
        if devices[want_out].frames_received == 0:
            result.fail(f"stop {stop[0]}: {want_out} shows no frame")

    # -- one closed-loop action ---------------------------------------------

    def _act(self, rng, home, devices, stop, result, frame_log) -> bool:
        """One input through the stop's input device; False when the
        recogniser misheard it (the action does not count)."""
        user = home.default_user
        window = user.window
        app = user.app
        input_id, output_id = stop[2], stop[3]
        output = devices[output_id]
        tabs = _tabs(window)
        toggles = _toggle_targets(app, window, home.appliances)
        focus = window.focus
        log = home.command_log
        submitted = log.submitted
        frames = output.frames_received
        mic = devices["mic"]
        misheard = mic.misrecognitions

        # choose an action that must have an effect
        if input_id == "pda":
            view = user.session.context.view
            visible = [w for w in toggles if _visible(w)]
            if visible and rng.random() < 0.5:
                kind, target = "toggle", rng.choice(visible)
                rect = target.abs_rect()
                x, y = view.to_device(rect.x + rect.w // 2,
                                      rect.y + rect.h // 2)
            else:
                kind = "tab"
                choices = [i for i in range(len(tabs.titles))
                           if i != tabs.active]
                target = rng.choice(choices)
                tab_w = max(window.theme.font.measure(t)[0] + 12
                            for t in tabs.titles)
                tab_h = window.theme.font.glyph_height + 8
                origin = tabs.abs_rect()
                x, y = view.to_device(origin.x + target * tab_w + tab_w // 2,
                                      origin.y + tab_h // 2)
            before = self._snapshot(kind, target, home, tabs, toggles)
            perform = lambda: devices["pda"].tap(x, y)  # noqa: E731
        else:
            keys = ROAM_KEYS[input_id]
            # a misheard word can switch tabs by bubbling LEFT/RIGHT up to
            # the tab panel while focus stays on the now-hidden widget:
            # activating it would change nothing on screen, so only a
            # visible focused switch is activated
            if focus in toggles and _visible(focus) and rng.random() < 0.5:
                kind, target, key = "toggle", focus, keys["ok"]
            elif focus is tabs and rng.random() < 0.5:
                kind = "tab"
                step = rng.choice((-1, 1))
                if not 0 <= tabs.active + step < len(tabs.titles):
                    step = -step
                target = tabs.active + step
                key = keys["right"] if step > 0 else keys["left"]
            else:
                kind, target, key = "focus", focus, keys["next"]
            before = self._snapshot(kind, target, home, tabs, toggles)
            device = devices[input_id]
            send = device.say if input_id == "mic" else device.press
            perform = lambda: send(key)  # noqa: E731

        t_sim = home.scheduler.now()
        frame_log["t"] = None
        t0 = time.perf_counter()
        perform()
        home.settle()
        elapsed = time.perf_counter() - t0
        result.steps_s.append(elapsed)

        if mic.misrecognitions != misheard:
            # the recogniser misheard: an input miss, not a program fault
            result.voice_misses += 1
            return False
        result.attempted += 1
        ok = self._verify(kind, target, before, home, tabs, window, focus,
                          log, submitted, result)
        if output.frames_received == frames:
            result.fail(f"{kind} via {input_id}: {output_id} got no frame")
            ok = False
        if ok:
            result.actuation_s.append(elapsed)
            result.sim_latency_s.append(frame_log["t"] - t_sim)
        return True

    def _snapshot(self, kind, target, home, tabs, toggles):
        if kind == "toggle":
            appliance, fcm_type, cap = toggles[target]
            fcm = _fcm_of(home.appliances[appliance], fcm_type)
            return (fcm, cap, fcm.get_state(cap.attribute))
        if kind == "tab":
            return tabs.active
        return target

    def _verify(self, kind, target, before, home, tabs, window, focus, log,
                submitted, result) -> bool:
        if kind == "toggle":
            fcm, cap, old = before
            new = log.submitted - submitted
            commands = list(log)[-new:] if new else []
            if (len(commands) != 1 or commands[0].opcode != cap.command
                    or commands[0].state is not CommandState.DONE):
                result.fail(f"toggle {cap.name}: commands "
                            f"{[(c.opcode, c.state.value) for c in commands]}")
                return False
            if fcm.get_state(cap.attribute) == old:
                result.fail(f"toggle {cap.name}: state stayed {old!r}")
                return False
            return True
        if log.submitted != submitted:
            result.fail(f"{kind}: unexpected command")
            return False
        if kind == "tab":
            if tabs.active != target:
                result.fail(f"tab: active {tabs.active}, wanted {target}")
                return False
            return True
        if window.focus is focus:
            result.fail("focus did not move")
            return False
        return True


def _toggle_targets(app, window, appliances) -> dict:
    """Switch widgets whose command must succeed -> (appliance, fcm type,
    capability).  The power switches are left alone and an FCM that is
    powered off is skipped: its other switches require power, and a
    misheard "select" on a focused power switch can turn one off."""
    targets = {}
    root = window.root
    if root is None:
        return targets
    for appliance in app.appliances:
        for handle in appliance.fcms:
            if handle.descriptor is None:
                continue
            if "power.set" in handle.descriptor.commands() \
                    and not _fcm_of(appliances[appliance.name],
                                    handle.fcm_type).get_state("power"):
                continue
            for cap in handle.descriptor.capabilities:
                if cap.kind != "switch" or cap.name == "power":
                    continue
                widget = root.find(
                    f"{handle.guid_prefix}.{handle.fcm_type}.{cap.name}")
                if isinstance(widget, ToggleButton):
                    targets[widget] = (appliance.name, handle.fcm_type, cap)
    return targets


def _home_counters(home) -> dict:
    """Per-layer counters read from the home's public statistics."""
    server = home.uniint_server
    counters = _server_counters(server)
    sessions = [u.session for u in home.users.values()]
    counters["proxy.frames_pushed"] = sum(s.frames_pushed for s in sessions)
    counters["proxy.updates_coalesced"] = sum(s.updates_coalesced
                                              for s in sessions)
    device_bytes = 0
    peak = counters["net.peak_queue_bytes"]
    for device in home.devices.values():
        for proxy_id in device.connected_proxies:
            stats = device.link_stats_for(proxy_id)
            device_bytes += stats.bytes_sent + stats.bytes_received
            peak = max(peak, stats.peak_queued_bytes)
    counters["net.device_bytes"] = device_bytes
    counters["net.peak_queue_bytes"] = peak
    spines = [view.app.spine for view in home.views]
    counters["app.coalesced"] = sum(s.coalesced for s in spines)
    counters["app.commands"] = home.command_log.submitted
    counters["app.rebuilds"] = sum(view.app.rebuild_count
                                   for view in home.views)
    counters["context.switches"] = sum(u.context.switch_count
                                       for u in home.users.values())
    return counters


def _server_counters(server, clients=()) -> dict:
    sessions = server.sessions
    hits = misses = 0
    for surface in server.surfaces:
        hits += surface.encode_cache.hits
        misses += surface.encode_cache.misses
    uip_bytes = sum(s.endpoint.stats.bytes_sent + s.endpoint.stats.bytes_received
                    for s in sessions)
    peak = max([s.endpoint.stats.peak_queued_bytes for s in sessions]
               + [c.endpoint.stats.peak_queued_bytes for c in clients]
               + [0])
    return {
        "server.updates_sent": sum(s.updates_sent for s in sessions),
        "server.rects_sent": sum(s.rects_sent for s in sessions),
        "server.updates_coalesced": server.updates_coalesced,
        "server.tier_escalations": sum(s.reevaluations for s in sessions),
        "server.shared_hits": server.shared_encode_hits,
        "server.shared_misses": server.shared_encode_misses,
        "uip.cache_hits": hits,
        "uip.cache_misses": misses,
        "graphics.tiles_checked": server.diff_tiles_checked,
        "graphics.tiles_dropped": server.diff_tiles_dropped,
        "net.uip_bytes": uip_bytes,
        "net.peak_queue_bytes": peak,
    }


# -- open-loop scripts -------------------------------------------------------------


@dataclass(order=True)
class _Due:
    at: float
    order: int
    kind: str = field(compare=False)
    args: tuple = field(compare=False, default=())


def _churn_script(rng: random.Random, seconds: float, rate: float,
                  burst_every: float, hotplug_every: float,
                  extra: tuple = ()) -> list:
    """Seeded open-loop schedule in simulated seconds.

    ``rate`` single writes per second at seeded uniform times,
    a 4-write slider burst every ``burst_every`` seconds (0.1 ms apart,
    well inside one bus round trip, so the spine coalesces them), and a
    hot-plug toggle every ``hotplug_every`` seconds.  ``extra`` adds
    (kind, period) periodic actions.
    """
    due: list[_Due] = []
    order = 0

    def add(at, kind, *args):
        nonlocal order
        due.append(_Due(at, order, kind, args))
        order += 1

    # a fixed number of writes at seeded uniform times (Poisson arrivals
    # conditioned on their count): evenly spaced writes would phase-lock
    # with the fixed frame times of the Ethernet panels
    for t in sorted(rng.uniform(0.0, seconds)
                    for _ in range(int(rate * seconds))):
        add(t, "write")
    t = burst_every / 2
    while t < seconds:
        for k in range(4):
            add(t + k * 1e-4, "burst", k)
        t += burst_every
    t = hotplug_every / 3
    while t < seconds:
        add(t, "hotplug")
        t += hotplug_every
    for kind, period in extra:
        t = period * rng.uniform(0.3, 0.7)
        while t < seconds:
            add(t, kind)
            t += period
    due.sort()
    return due


def _drive(scheduler, script, perform, result, tracer) -> None:
    """Run the simulation up to each due time and perform the action due,
    then drain to quiescence; each stretch is one step of ``steps_s``."""
    sim0 = scheduler.now()
    last = time.perf_counter()
    for number, due in enumerate(script, start=1):
        scheduler.run_until(sim0 + due.at)
        _set_action(tracer, number)
        perform(due)
        result.attempted += 1
        now = time.perf_counter()
        result.steps_s.append(now - last)
        last = now
    scheduler.run_until_idle()
    result.steps_s.append(time.perf_counter() - last)


class _Deck:
    """Seeded draws that stay balanced: every item comes up once per
    shuffled round, so each episode writes the same mix of targets and
    only order and values depend on the seed."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self._round: list = []

    def draw(self, avoid=None):
        """The next item, never ``avoid`` (given two or more items)."""
        if self._round == [avoid]:
            self._round = []  # its turn: it is already what ``avoid`` is
        if not self._round:
            self._round = list(self.items)
            self.rng.shuffle(self._round)
        if self._round[-1] == avoid and len(self._round) > 1:
            self._round[0], self._round[-1] = self._round[-1], self._round[0]
        return self._round.pop()


class _Writer:
    """Generates verified-effect writes and remembers what must hold.

    Four writes in five go to an appliance some view shows (round robin
    over the shown ones), one to any appliance; each appliance's
    capabilities are cycled through in seeded order.
    """

    #: Of every five writes, how many target an appliance on screen.
    SHOWN_PER_FIVE = 4

    def __init__(self, rng, targets, probes, submit) -> None:
        self.rng = rng
        self.targets = targets
        self.probes = probes
        self.submit = submit
        #: (guid, fcm seid, attribute) -> expected final value.
        self.expected: dict[tuple, object] = {}
        self.commands: list = []
        self._burst = None
        self._slots = _Deck(rng, [True] * self.SHOWN_PER_FIVE + [False])
        by_guid: dict[str, list] = defaultdict(list)
        for target in targets:
            by_guid[target[1]].append(target)
        self._caps = {guid: _Deck(rng, group)
                      for guid, group in by_guid.items()}
        self._ranges = {guid: _Deck(rng, [t for t in group
                                          if t[3].kind == "range"])
                        for guid, group in by_guid.items()}
        self._any = _Deck(rng, sorted(by_guid))
        self._shown: dict[tuple, _Deck] = {}

    def _appliance(self, shown: set) -> str:
        on_screen = tuple(sorted(g for g in shown if g in self._caps))
        if not on_screen or not self._slots.draw():
            return self._any.draw()
        deck = self._shown.get(on_screen)
        if deck is None:
            deck = self._shown[on_screen] = _Deck(self.rng, on_screen)
        return deck.draw()

    def _current(self, guid, handle, cap):
        key = (guid, str(handle.seid), cap.attribute)
        return self.expected.get(key, handle.get(cap.attribute))

    def _write(self, name, guid, handle, cap, value) -> None:
        key = (guid, str(handle.seid), cap.attribute)
        self.expected[key] = value
        if cap.kind in SHOWN_KINDS:
            self.probes.expect(guid, cap.attribute, value,
                               widget_id(handle, cap))
        self.commands.append(self.submit(name, handle, cap.command,
                                         {cap.arg_name: value}))

    def write(self, shown: set) -> None:
        name, guid, handle, cap = self._caps[self._appliance(shown)].draw()
        value = _new_value(self.rng, cap, self._current(guid, handle, cap))
        self._write(name, guid, handle, cap, value)

    def burst(self, step: int, shown: set) -> None:
        if step == 0:
            guid = self._appliance(shown)
            while not self._ranges[guid].items:
                guid = self._any.draw()
            self._burst = self._ranges[guid].draw()
        name, guid, handle, cap = self._burst
        value = _new_value(self.rng, cap, self._current(guid, handle, cap))
        self._write(name, guid, handle, cap, value)

    def verify(self, result: EpisodeResult, appliances: dict) -> None:
        for command in self.commands:
            if command.state not in (CommandState.DONE,
                                     CommandState.SUPERSEDED):
                result.fail(f"{command.opcode}: {command.state.value} "
                            f"{command.status}")
        for (guid, seid, attribute), value in self.expected.items():
            fcm = next(f for a in appliances.values() if a.guid == guid
                       for f in a.dcm.fcms if str(f.seid) == seid)
            if fcm.get_state(attribute) != value:
                result.fail(f"{attribute}: {fcm.get_state(attribute)!r} "
                            f"!= written {value!r}")


# -- adaptive_links ------------------------------------------------------------------


class AdaptiveLinks(Workload):
    """Open loop on a link-adaptive server: no proxy, no devices."""

    name = "adaptive_links"
    BEARERS = (ETHERNET_100, BLUETOOTH_1, CELLULAR_PDC)
    ROAM_BEARERS = (ETHERNET_100, BLUETOOTH_1)
    rate = 10.0
    burst_every = 0.25
    hotplug_every = 3.0
    tab_every = 1.2
    roam_every = 1.5

    def __init__(self, tiny: bool = False) -> None:
        self.sim_seconds = 2.5 if tiny else 6.0

    def parameters(self) -> dict:
        return {"appliances": [n for n, _ in APPLIANCES],
                "clients": [b.name for b in self.BEARERS],
                "roaming_client_bearers": [b.name for b in self.ROAM_BEARERS],
                "roam_every_sim_s": self.roam_every,
                "tab_switch_every_sim_s": self.tab_every,
                "sim_seconds_per_episode": self.sim_seconds,
                "writes_per_sim_s": self.rate,
                "burst": "4 range writes 0.1 ms apart every "
                         f"{self.burst_every} sim s",
                "hotplug_every_sim_s": self.hotplug_every,
                "screen": [480, 360]}

    def episode(self, seed: int, index: int, tracer=None,
                corrupt_mirror: bool = False) -> EpisodeResult:
        rng = episode_rng(seed, index, self.name)
        result = EpisodeResult()
        start = time.perf_counter()
        scheduler = Scheduler()
        network = HomeNetwork(scheduler)
        appliances = {}
        for name, cls in APPLIANCES:
            appliances[name] = cls(name)
            network.attach_device(appliances[name])
        network.settle()
        display = DisplayServer(480, 360)
        window = UIWindow(480, 360, title="home appliances")
        app = HomeApplianceApplication(network, window)
        display.map_fullscreen(window)
        server = UniIntServer(display, scheduler, backpressure=True,
                              link_adaptive=True)
        clients = []
        for bearer in self.BEARERS:
            pipe = make_pipe(scheduler, bearer, name=f"{bearer.name}-link",
                             seed=rng.randrange(1 << 30))
            server.accept(pipe.a)
            clients.append(UniIntClient(pipe.b))
        scheduler.run_until_idle()

        def submit(name, handle, opcode, payload):
            return handle.command(opcode, payload, origin="api")

        _power_on(lambda a, h, op, p: submit(a.name, h, op, p), app)
        scheduler.run_until_idle()
        result.setup_s = time.perf_counter() - start
        for client in clients:
            if client.updates_received == 0:
                result.fail("client shows no first frame")

        probes = VisibilityProbes(scheduler, network, app, display,
                                  list(zip(server.sessions, clients)))

        writer = _Writer(rng, _writable(app, [n for n, _ in APPLIANCES]),
                         probes, submit)
        script = _churn_script(rng, self.sim_seconds, self.rate,
                               self.burst_every, self.hotplug_every,
                               extra=(("tab", self.tab_every),
                                      ("roam", self.roam_every)))
        plugged = {"unit": 0, "on": False, "device": None}
        roam = {"client": None, "n": 0, "since": 0.0}
        tab_deck = _Deck(rng, [n for n, _ in APPLIANCES])

        def first_frame(client, since):
            previous = client.on_update

            def hooked(region):
                if previous is not None:
                    previous(region)
                if client.updates_received == 1:
                    result.handoff_s.append(scheduler.now() - since)
            client.on_update = hooked

        def perform(due: _Due) -> None:
            now = scheduler.now()
            shown = {_shown_guid(app)}
            if due.kind == "write":
                writer.write(shown)
            elif due.kind == "burst":
                writer.burst(due.args[0], shown)
            elif due.kind == "tab":
                current = app.appliances[_tabs(window).active].name
                app.show_appliance(tab_deck.draw(avoid=current))
            elif due.kind == "hotplug":
                if plugged["on"]:
                    network.detach_device(plugged["device"].guid)
                else:
                    plugged["unit"] += 1
                    plugged["device"] = Refrigerator(
                        HOTPLUG_NAME, unit=100 + plugged["unit"])
                    network.attach_device(plugged["device"])
                plugged["on"] = not plugged["on"]
            elif due.kind == "roam":
                old = roam["client"]
                if old is not None:
                    if old.updates_received == 0:
                        result.fail("roaming client never got a frame")
                    old.close()
                bearer = self.ROAM_BEARERS[roam["n"] % len(self.ROAM_BEARERS)]
                roam["n"] += 1
                pipe = make_pipe(scheduler, bearer,
                                 seed=rng.randrange(1 << 30),
                                 name=f"roam-{roam['n']}-{bearer.name}")
                server.accept(pipe.a)
                client = UniIntClient(pipe.b)
                first_frame(client, now)
                roam["client"] = client

        _drive(scheduler, script, perform, result, tracer)
        # realtime_x: simulated seconds of scripted input per wall
        # second, the drain to quiescence included
        result.sim_s = self.sim_seconds
        probes.close()
        probes.settle(result)
        writer.verify(result, appliances)
        for n, (session, client) in enumerate(zip(server.sessions[:3],
                                                  clients)):
            _check_mirror(result, f"client {self.BEARERS[n].name}",
                          client.framebuffer, display.framebuffer,
                          corrupt_mirror and n == 0)
        if roam["client"] is not None:
            _check_mirror(result, "roaming client",
                          roam["client"].framebuffer, display.framebuffer,
                          False)
        _check_journal(result, app.command_log)
        counters = _server_counters(server, clients)
        counters["app.coalesced"] = app.spine.coalesced
        counters["app.commands"] = app.command_log.submitted
        counters["app.rebuilds"] = app.rebuild_count
        counters["net.device_bytes"] = 0
        counters["proxy.frames_pushed"] = 0
        counters["proxy.updates_coalesced"] = 0
        counters["context.switches"] = 0
        counters["net.uip_bytes"] += sum(
            c.endpoint.stats.bytes_sent + c.endpoint.stats.bytes_received
            for c in clients)
        result.counters = counters
        # encoder choice follows a wall-clock encode-cost EMA, so link
        # bytes (and update timing) may differ run to run for one seed:
        # only the command journal is held to determinism here
        result.deterministic = {"journal": _journal(app.command_log)}
        return result


WORKLOADS = {cls.name: cls for cls in (ResidentRoam, AdaptiveLinks)}
