"""The schedule-perturbation sanitizer: planted race, planted wall-clock
and RNG reads, and the sanitized environment itself."""

import json
import random
import time
from datetime import datetime
from pathlib import Path
from random import random as from_random_import_random
from time import time as from_time_import_time

import pytest

from repro.analysis.sanitizer import (
    SanitizeOptions,
    SanitizedEnvironment,
    diagnose_divergence,
    run_scenario,
    sanitized,
)
from repro.netsim.engine import Environment, Event, SimulationError
from repro.scenarios import SCENARIOS, Scenario
from repro.telemetry import NULL_TRACER


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
    # the seeds did break ties differently, so the equal digest means
    # something
    assert [r.key for r in a.dispatch_log] != [r.key for r in b.dispatch_log]


# -- the sanitized environment itself ------------------------------------------


def test_default_environment_is_untouched():
    """Instrumentation costs nothing when it is off: a default
    ``Environment()`` is the base class, its hot methods are the base
    class's own, and it carries the shared ``NULL_TRACER``, so no
    instrumented branch reaches the default path."""
    env = Environment()
    assert type(env) is Environment
    for name in ("_schedule", "step", "run", "timeout"):
        method = getattr(env, name).__func__
        assert method is vars(Environment)[name]
        assert method.__qualname__ == f"Environment.{name}"
    assert env.tracer is NULL_TRACER


def test_sanitized_reinstall_schedules_every_event_through_the_hook():
    """The base engine queues timers and triggered events inline; an
    instrumented environment still sees every one through ``_schedule``
    (a bypassing event would dispatch with no scheduling site), and the
    sanitized reinstall prints the manifest's digest."""
    run = run_scenario("reinstall", 1, nodes=8, record_stacks=False)
    assert run.dispatch_log
    assert all(rec.site != "<unknown>" for rec in run.dispatch_log)
    manifest = Path(__file__).parents[1] / "core" / "golden" / "manifest.json"
    rows = json.loads(manifest.read_text(encoding="utf-8"))
    assert run.digest == rows["reinstall 8 0"]


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


def test_dispatch_log_records_labels_and_sites():
    env = SanitizedEnvironment(options=SanitizeOptions(seed=1))

    def proc():
        yield env.timeout(4.0)

    env.process(proc(), name="solo")
    env.run()
    labels = [r.label for r in env.dispatch_log]
    assert any("Timeout" in lb and "solo" in lb for lb in labels)
    assert all(r.site for r in env.dispatch_log)


# -- wall-clock and RNG reads that reach the output ----------------------------


perf = time.perf_counter  # an aliased clock


@pytest.mark.parametrize("read, diverges", [
    pytest.param(lambda: time.time(), True, id="time.time"),
    pytest.param(lambda: perf(), True, id="aliased-perf_counter"),
    pytest.param(lambda: from_time_import_time(), True,
                 id="from-time-import-time"),
    pytest.param(lambda: datetime.now(), True, id="datetime.now"),
    pytest.param(lambda: random.random(), True, id="random.random"),
    pytest.param(lambda: from_random_import_random(), True,
                 id="from-random-import-random"),
    pytest.param(lambda: random.Random().random(), True,
                 id="unseeded-Random"),
    pytest.param(lambda: random.Random(123).random(), False,
                 id="seeded-Random"),
])
def test_divergence_catches_wall_clock_and_rng_reads(monkeypatch, read,
                                                     diverges):
    """A scenario whose output reads the wall clock or an unseeded RNG
    differs between the two perturbed runs; a seeded RNG does not."""
    def planted(nodes: int, seed: int, tracer) -> str:
        env = Environment()
        out = []

        def worker():
            yield env.timeout(1.0)
            out.append(repr(read()))

        env.process(worker(), name="reader")
        env.run()
        return "".join(out) + "\n"

    monkeypatch.setitem(SCENARIOS, "planted", Scenario(1, 0, planted))
    report = diagnose_divergence(run_scenario("planted", 1),
                                 run_scenario("planted", 2))
    assert (report is not None) == diverges
    if diverges:
        assert report.to_diagnostic().code == "RK310"
