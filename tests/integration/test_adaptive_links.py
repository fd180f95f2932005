"""Integration: per-link adaptive encoder selection (paper §3.3).

One display server, two very different bearers.  A link-adaptive server
should spend CPU to save wire bytes on the 9600 bps cellular leg (ZRLE at
max compression) while the loopback leg takes the cheap path (HEXTILE,
no trial encodes at all) — and both client mirrors must stay exact.
"""

from collections import Counter

from repro.net import BLUETOOTH_1, CELLULAR_PDC, LOOPBACK, make_pipe
from repro.net.link import compression_tier
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Column, Label, UIWindow
from repro.uip import HEXTILE, RAW, RRE, ZRLE, ResumeSession, SetEncodings
from repro.util import Scheduler
from repro.windows import DisplayServer


def adaptive_stack(profile, *, width=320, height=240, rows=10):
    scheduler = Scheduler()
    display = DisplayServer(width, height)
    window = UIWindow(width, height)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(rows)]
    window.set_root(column)
    display.map_fullscreen(window)
    server = UniIntServer(display, scheduler, backpressure=True,
                          link_adaptive=True)
    pipe = make_pipe(scheduler, profile, name=f"{profile.name}-link")
    session = server.accept(pipe.a)
    client = UniIntClient(pipe.b)
    scheduler.run_until_idle()
    return scheduler, labels, session, client


def drive_churn(scheduler, labels, client, seconds=8.0,
                poll_every=0.05, churn_every=0.1):
    schedule_churn(scheduler, labels, client, seconds, poll_every,
                   churn_every)
    scheduler.run_for(seconds)


def schedule_churn(scheduler, labels, client, seconds=8.0,
                   poll_every=0.05, churn_every=0.1):
    """Arm the polling and relabelling timers for ``seconds``; the caller
    runs the scheduler."""
    deadline = scheduler.now() + seconds

    def poll():
        if client.ready:
            client.request_update(True)
        if scheduler.now() + poll_every <= deadline:
            scheduler.call_later(poll_every, poll)

    rounds = {"n": 0}

    def churn():
        rounds["n"] += 1
        for i, label in enumerate(labels):
            label.text = f"round {rounds['n']} v{(rounds['n'] * 37 + i) % 997}"
        if scheduler.now() + churn_every <= deadline:
            scheduler.call_later(churn_every, churn)

    scheduler.call_later(poll_every, poll)
    scheduler.call_later(churn_every, churn)


def assert_mirror_exact(session, client):
    import numpy as np
    assert np.array_equal(client.framebuffer.pixels,
                          session.surface.display.framebuffer.pixels)


class TestAdaptiveSelection:
    def test_phone_leg_upgrades_to_zrle(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        assert compression_tier(CELLULAR_PDC) == 2
        drive_churn(scheduler, labels, client)
        scheduler.run_until_idle()
        health = session.link_health()
        assert health.tier == 2
        assert health.active_encoding == ZRLE
        assert session.rects_by_encoding[ZRLE] > 0
        assert_mirror_exact(session, client)

    def test_loopback_leg_stays_on_hextile(self):
        scheduler, labels, session, client = adaptive_stack(LOOPBACK)
        assert compression_tier(LOOPBACK) == 0
        drive_churn(scheduler, labels, client, seconds=3.0)
        scheduler.run_until_idle()
        health = session.link_health()
        assert health.tier == 0
        assert health.active_encoding == HEXTILE
        # tier 0 never runs trial encodes, so nothing else ever got sent
        assert set(session.rects_by_encoding) == {HEXTILE}
        assert_mirror_exact(session, client)

    def test_different_legs_pick_different_encoders(self):
        """The acceptance bar: same UI, adaptive server, the phone leg and
        the local leg end up on different wire encodings."""
        _, labels_a, phone, client_a = adaptive_stack(CELLULAR_PDC)
        sched_a = phone.surface.server.scheduler
        drive_churn(sched_a, labels_a, client_a)
        sched_a.run_until_idle()
        _, labels_b, local, client_b = adaptive_stack(LOOPBACK)
        sched_b = local.surface.server.scheduler
        drive_churn(sched_b, labels_b, client_b, seconds=3.0)
        sched_b.run_until_idle()
        assert phone.link_health().active_encoding == ZRLE
        assert local.link_health().active_encoding == HEXTILE

    def test_bluetooth_leg_escalates_under_churn(self):
        """A mid-tier bearer that keeps falling behind shifts to heavier
        compression: withheld sends accumulate, the session escalates to
        tier 2 and re-seeds its candidate order."""
        scheduler, labels, session, client = adaptive_stack(
            BLUETOOTH_1, width=480, height=360, rows=14)
        assert compression_tier(BLUETOOTH_1) == 1
        drive_churn(scheduler, labels, client, seconds=6.0,
                    poll_every=0.005, churn_every=0.005)
        scheduler.run_until_idle()
        health = session.link_health()
        assert session.updates_coalesced >= 3  # the link really fell behind
        assert health.tier == 2
        assert health.reevaluations >= 1
        assert session.rects_by_encoding[ZRLE] > 0
        assert_mirror_exact(session, client)

    def test_link_health_snapshot_contents(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        drive_churn(scheduler, labels, client)
        health = session.link_health()
        assert health.profile == CELLULAR_PDC.name
        assert health.bandwidth_bps == CELLULAR_PDC.bandwidth_bps
        assert health.updates_coalesced == session.updates_coalesced
        assert health.bytes_suppressed == session.bytes_suppressed
        assert health.backlog_s >= 0.0
        scheduler.run_until_idle()
        assert session.link_health().backlog_s == 0.0  # fully drained

    def test_stats_exposes_link_health(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        drive_churn(scheduler, labels, client, seconds=3.0)
        scheduler.run_until_idle()
        stats = session.stats()
        assert stats["link_health"] is session.link_health() or (
            stats["link_health"] == session.link_health())
        assert stats["rects_by_encoding"] == dict(session.rects_by_encoding)
        assert stats["updates_sent"] == session.updates_sent


def step_until(scheduler, predicate, limit=500_000):
    """Run one event at a time until ``predicate()`` holds."""
    for _ in range(limit):
        if predicate():
            return
        if not scheduler.step():
            break
    assert predicate(), "condition never reached"


def server_leg(server, scheduler, name):
    """The client end of a fresh phone-bearer leg into ``server``."""
    pipe = make_pipe(scheduler, CELLULAR_PDC, name=name)
    server.accept(pipe.a)
    return pipe.b


def sent_since(session, before):
    """Rects per encoding sent after the ``before`` snapshot."""
    return Counter(session.rects_by_encoding) - before


class TestRememberedChoice:
    """Link-adaptive sessions probe the candidates on the first rect of a
    size class and every few rects after; in between they reuse the
    probe's winner.  A remembered winner never outlives the candidate
    list it came from, so it can never send what the client withdrew."""

    def test_churning_session_encodes_each_rect_about_once(self):
        scheduler, labels, session, client = adaptive_stack(
            BLUETOOTH_1, rows=12)
        drive_churn(scheduler, labels, client, seconds=2.0,
                    poll_every=0.01, churn_every=0.02)
        scheduler.run_until_idle()
        stats = session.stats()
        assert stats["rects_sent"] > 200
        assert 0 < stats["encode_probes"] < stats["rects_sent"] / 4
        assert stats["rect_encodes"] <= 1.5 * stats["rects_sent"]
        assert_mirror_exact(session, client)

    def test_set_encodings_resets_the_choice(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        drive_churn(scheduler, labels, client, seconds=2.0)
        scheduler.run_until_idle()
        assert session._choices
        offer = (HEXTILE, RRE, RAW)
        client.endpoint.send(SetEncodings(offer).encode())
        scheduler.run_until_idle()
        assert session._choices == {}
        before = Counter(session.rects_by_encoding)
        probes = session.encode_probes
        drive_churn(scheduler, labels, client, seconds=2.0)
        scheduler.run_until_idle()
        assert session.encode_probes > probes
        sent = sent_since(session, before)
        assert sent and set(sent) <= set(offer)
        assert {c[0] for c in session._choices.values()} <= set(offer)
        assert_mirror_exact(session, client)

    def test_resume_resets_the_choice_to_the_parked_offer(self):
        scheduler = Scheduler()
        display = DisplayServer(320, 240)
        window = UIWindow(320, 240)
        column = Column()
        labels = [column.add(Label(f"row {i}")) for i in range(10)]
        window.set_root(column)
        display.map_fullscreen(window)
        server = UniIntServer(display, scheduler, link_adaptive=True,
                              resume_grace_s=30.0)
        offer = (HEXTILE, RRE, RAW)
        parked = UniIntClient(
            server_leg(server, scheduler, "parked"), encodings=offer)
        scheduler.run_until_idle()
        token = parked.resume_token
        parked.endpoint.abort()
        scheduler.run_until_idle()
        client = UniIntClient(server_leg(server, scheduler, "live"))
        scheduler.run_until_idle()
        session = server.sessions[0]
        drive_churn(scheduler, labels, client, seconds=2.0)
        scheduler.run_until_idle()
        assert ZRLE in {c[0] for c in session._choices.values()}
        client.endpoint.send(ResumeSession(token).encode())
        scheduler.run_until_idle()
        assert session.resumed and session.encodings == offer
        assert session._choices == {}
        before = Counter(session.rects_by_encoding)
        drive_churn(scheduler, labels, client, seconds=2.0)
        scheduler.run_until_idle()
        sent = sent_since(session, before)
        assert sent and set(sent) <= set(offer)
        assert_mirror_exact(session, client)

    def test_escalation_resets_the_choice_and_probes_afresh(self):
        scheduler, labels, session, client = adaptive_stack(CELLULAR_PDC)
        assert session._choices  # the first full frame was probed
        schedule_churn(scheduler, labels, client, seconds=2.0,
                       poll_every=0.01, churn_every=0.02)
        step_until(scheduler, lambda: session.reevaluations == 1)
        # the escalation fired on a withheld send: nothing was encoded
        # since, and nothing of the old candidate order is remembered
        assert session._choices == {}
        probes, rects = session.encode_probes, session.rects_sent
        step_until(scheduler, lambda: session.rects_sent > rects)
        assert session.encode_probes > probes
        scheduler.run_until_idle()
        assert_mirror_exact(session, client)
