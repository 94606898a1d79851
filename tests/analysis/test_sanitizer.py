"""The schedule-perturbation sanitizer: planted race, clean scenarios, traps."""

import random
import time

import pytest

from repro.analysis.sanitizer import (
    SanitizeOptions,
    SanitizedEnvironment,
    diagnose_divergence,
    run_scenario,
    sanitized,
)
from repro.netsim.engine import Environment, Event, SimulationError


# -- the planted race: the positive control ------------------------------------


def test_race_fixture_diverges_across_seeds():
    a = run_scenario("race-fixture", 1)
    b = run_scenario("race-fixture", 2)
    assert a.digest != b.digest
    report = diagnose_divergence(a, b)
    assert report is not None
    assert report.seeds == (1, 2)
    assert report.divergence_time == 10.0
    # the colliding pair names two same-tick timeouts with their stacks
    assert report.pair is not None
    ra, rb = report.pair
    assert ra.key != rb.key
    assert "Timeout" in ra.label and "racer" in ra.label
    assert ra.stack and "worker" in ra.stack[0]
    rendered = report.render()
    assert "RACE" in rendered and "colliding event pair" in rendered
    diag = report.to_diagnostic()
    assert diag.code == "RK310"
    assert diag.severity.value == "error"


def test_race_fixture_same_seed_is_byte_identical():
    a = run_scenario("race-fixture", 7)
    b = run_scenario("race-fixture", 7)
    assert a.output == b.output
    assert a.digest == b.digest
    assert diagnose_divergence(a, b) is None
    assert [r.key for r in a.dispatch_log] == [r.key for r in b.dispatch_log]


def test_table1_is_race_free_across_seeds():
    """The real acceptance bar at test scale: the paper scenario must be
    byte-identical no matter how same-tick ties are broken."""
    a = run_scenario("reinstall", 1, nodes=2, record_stacks=False)
    b = run_scenario("reinstall", 2, nodes=2, record_stacks=False)
    assert diagnose_divergence(a, b) is None
    assert a.digest == b.digest
    assert not a.diagnostics and not b.diagnostics


# -- the sanitized environment itself ------------------------------------------


def test_default_environment_is_untouched():
    env = Environment()
    assert type(env) is Environment


def test_explicit_sanitize_swaps_class():
    env = SanitizedEnvironment(options=SanitizeOptions(seed=3))
    assert type(env) is SanitizedEnvironment
    assert env.options.seed == 3
    # the base constructor takes no instrumentation keywords
    with pytest.raises(TypeError):
        Environment(sanitize=SanitizeOptions(seed=3))


def test_ambient_sanitize_reaches_nested_constructors():
    def build():
        return Environment()  # a scenario constructing its own env

    with sanitized(SanitizeOptions(seed=5)) as session:
        env = build()
    assert type(env) is SanitizedEnvironment
    assert env.options.seed == 5  # read from the active session
    assert session.envs == [env]
    assert type(build()) is Environment  # restored on exit


def test_sanitized_environment_has_no_instance_dict():
    env = SanitizedEnvironment()
    assert not hasattr(env, "__dict__")


def test_sanitized_run_semantics_match_base():
    """Timers, process values, run(until=...) and step() behave identically."""
    for env in (Environment(),
                SanitizedEnvironment(options=SanitizeOptions(seed=9))):
        log = []

        def proc():
            yield env.timeout(1.0)
            log.append(env.now)
            value = yield env.timeout(2.0, value="done")
            log.append(value)
            return 42

        p = env.process(proc(), name="p")
        assert env.run(until=p) == 42
        assert log == [1.0, "done"]
        assert env.now == 3.0
        env.run(until=10.0)
        assert env.now == 10.0
        with pytest.raises(SimulationError):
            env.step()  # the queue is drained


def test_sanitized_run_until_cancelled_event_raises():
    env = SanitizedEnvironment()
    stop = Event(env)  # pending: never triggers once cancelled
    env.timeout(1.0)
    env.cancel(stop)
    with pytest.raises(SimulationError):
        env.run(until=stop)


def test_sanitized_timeout_batch_ties_are_heap_safe():
    """Batch entries share due times with singles; perturbed keys must
    stay mutually comparable (the base class pushes raw int keys)."""
    env = SanitizedEnvironment(options=SanitizeOptions(seed=11))
    batch = env.timeout_batch([2.0, 2.0, 2.0], value="b")
    single = env.timeout(2.0, value="s")
    seen = []

    def collect(tout):
        def waiter():
            value = yield tout
            seen.append(value)
        env.process(waiter(), name=f"w{len(seen)}")

    for t in batch + [single]:
        collect(t)
    env.run()
    assert sorted(seen) == ["b", "b", "b", "s"]
    assert env.now == 2.0


def test_dispatch_log_records_labels_and_sites():
    env = SanitizedEnvironment(options=SanitizeOptions(seed=1))

    def proc():
        yield env.timeout(4.0)

    env.process(proc(), name="solo")
    env.run()
    labels = [r.label for r in env.dispatch_log]
    assert any("Timeout" in lb and "solo" in lb for lb in labels)
    assert all(r.site for r in env.dispatch_log)


# -- runtime traps --------------------------------------------------------------


def test_rk311_rk312_traps_fire_and_restore():
    orig_random, orig_time = random.random, time.time
    with sanitized(SanitizeOptions(seed=7)) as session:
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            random.random()
            time.time()
            random.random()  # same site as nothing else; still one RK311

        env.process(proc(), name="p")
        env.run()
    diags = session.diagnostics()
    assert sorted(d.code for d in diags) == ["RK311", "RK311", "RK312"]
    assert diags == sorted(diags, key=lambda d: d.sort_key)
    assert random.random is orig_random
    assert time.time is orig_time


def test_trap_dedup_per_call_site():
    with sanitized(SanitizeOptions(seed=7)) as session:
        for _ in range(5):
            random.random()  # one site, many calls
    assert [d.code for d in session.diagnostics()] == ["RK311"]


def test_seeded_instance_rng_is_not_trapped():
    with sanitized(SanitizeOptions(seed=7)) as session:
        rng = random.Random(123)
        rng.random()
        rng.randint(1, 5)
    assert session.diagnostics() == []


def test_rk313_same_tick_cross_writer_conflict():
    class Shared:
        pass

    with sanitized(SanitizeOptions(seed=7), watch=(Shared,)) as session:
        env = Environment()
        obj = Shared()

        def writer(i):
            yield env.timeout(5.0)
            obj.winner = i

        for i in range(2):
            env.process(writer(i), name=f"w{i}")
        env.run()
    diags = session.diagnostics()
    assert [d.code for d in diags] == ["RK313"]
    assert sorted(diags[0].data["writers"]) == ["w0", "w1"]
    assert diags[0].data["tick"] == 5.0
    # the trap is removed on exit
    assert "__setattr__" not in Shared.__dict__


def test_rk313_quiet_for_distinct_ticks_and_single_writer():
    class Shared:
        pass

    with sanitized(SanitizeOptions(seed=7), watch=(Shared,)) as session:
        env = Environment()
        obj = Shared()

        def writer(i, delay):
            yield env.timeout(delay)
            obj.winner = i
            obj.winner = i  # same writer twice in one tick: fine

        for i, delay in enumerate([1.0, 2.0]):
            env.process(writer(i, delay), name=f"w{i}")
        env.run()
    assert session.diagnostics() == []
