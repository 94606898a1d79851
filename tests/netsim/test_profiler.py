"""Engine self-profiler: counts, attribution, ambient opt-in, zero overhead."""

import pytest

from repro import build_cluster
from repro.netsim import (
    Environment,
    ProfiledEnvironment,
    ProfileOptions,
    SimulationError,
    profiled,
)
from repro.netsim import engine as _engine


def drive(env, n=5, dt=1.0):
    def ticker():
        for _ in range(n):
            yield env.timeout(dt)

    env.process(ticker())
    env.run()
    return env


def test_profiled_env_counts_events_and_heap_traffic():
    env = drive(ProfiledEnvironment())
    prof = env.profile
    assert prof.events_dispatched == env.events_dispatched
    assert prof.heap_pops == prof.heap_pushes > 0
    assert prof.sim_seconds == pytest.approx(5.0)


def test_profiled_env_simulates_identically_to_plain():
    """Profiling must observe, never perturb: same clock, same event
    count, same sequence numbers."""
    plain = drive(Environment(), n=7, dt=0.5)
    prof = drive(ProfiledEnvironment(), n=7, dt=0.5)
    assert prof.now == plain.now
    assert prof.events_dispatched == plain.events_dispatched
    assert repr(prof._seq) == repr(plain._seq)  # same next sequence number


def test_by_site_attributes_wall_time_to_the_generator():
    env = drive(ProfiledEnvironment())
    sites = list(env.profile.by_site)
    assert any(site.endswith(":ticker") for site in sites)
    calls, wall = env.profile.by_site[
        next(s for s in sites if s.endswith(":ticker"))
    ]
    assert calls >= 5 and wall >= 0.0


def test_by_site_off_skips_wall_timing():
    env = drive(ProfiledEnvironment(options=ProfileOptions(by_site=False)))
    assert env.profile.by_site == {}
    assert env.profile.callback_wall_s == 0.0
    assert env.profile.events_dispatched > 0


def test_timeout_batch_counted_in_bulk():
    env = ProfiledEnvironment()
    env.timeout_batch([1.0, 2.0, 3.0])
    assert env.profile.timeout_batches == 1
    assert env.profile.heap_pushes == 3


def test_step_on_empty_queue_still_raises():
    with pytest.raises(SimulationError):
        ProfiledEnvironment().step()


def test_run_until_event_and_deadline_match_base_semantics():
    env = ProfiledEnvironment()
    t = env.timeout(2.0, value="done")
    assert env.run(until=t) == "done"
    env.run(until=10.0)
    assert env.now == 10.0


def test_plain_environment_carries_no_profiler():
    env = Environment()
    assert type(env) is Environment
    assert not hasattr(env, "profile")


def test_profiled_context_swaps_internally_built_environments():
    with profiled() as session:
        sim = build_cluster(n_compute=1)
        sim.integrate_all()
    assert len(session.envs) == 1
    assert isinstance(sim.env, ProfiledEnvironment)
    report = session.profilers[0].report()
    assert report["events_dispatched"] > 0
    assert report["fair_share_refills"] > 0  # FlowNetwork self-registered
    assert "engine profile:" in session.render()
    # the ambient class does not leak past the block
    assert _engine._AMBIENT_CLASS is None
    assert type(Environment()) is Environment


def test_profiled_render_lists_hottest_sites():
    with profiled() as session:
        sim = build_cluster(n_compute=1)
        sim.integrate_all()
    text = session.render(top=3)
    assert "hottest callback sites" in text
    assert "src/repro/" in text


def test_sanitizer_wins_over_ambient_profile():
    """When both sessions are active the sanitizer's subclass is
    constructed — its diagnostics outrank profiling."""
    from repro.analysis import SanitizedEnvironment, sanitized

    with profiled():
        with sanitized():
            env = Environment()
            assert type(env) is SanitizedEnvironment
        assert type(Environment()) is ProfiledEnvironment
    assert type(Environment()) is Environment


def test_sanitizer_outer_still_wins_over_inner_profile():
    from repro.analysis import SanitizedEnvironment, sanitized

    with sanitized() as san:
        with profiled() as prof:
            env = Environment()
            assert type(env) is SanitizedEnvironment
        assert type(Environment()) is SanitizedEnvironment
    assert type(Environment()) is Environment
    assert prof.envs == []
    assert len(san.envs) == 2


def test_profiled_env_reads_options_from_its_session():
    with profiled(ProfileOptions(by_site=False)):
        env = drive(Environment())
    assert env.profile.options.by_site is False
    assert env.profile.by_site == {}
    # an explicit option still beats the session's
    with profiled(ProfileOptions(by_site=False)):
        env = ProfiledEnvironment(options=ProfileOptions())
    assert env.profile.options.by_site is True


def test_profile_session_empty_render():
    with profiled() as session:
        pass
    assert session.render() == "engine profile: no environments were built"
