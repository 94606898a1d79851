"""Unit tests for the discrete-event engine."""

import pytest

from repro.netsim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value():
    env = Environment()

    def worker():
        yield env.timeout(1)
        return 42

    proc = env.process(worker())
    assert env.run(until=proc) == 42


def test_process_waits_on_process():
    env = Environment()
    order = []

    def inner():
        yield env.timeout(3)
        order.append("inner")
        return "payload"

    def outer():
        value = yield env.process(inner())
        order.append("outer")
        return value

    result = env.run(until=env.process(outer()))
    assert result == "payload"
    assert order == ["inner", "outer"]


def test_events_fire_in_time_order_with_fifo_ties():
    env = Environment()
    seen = []

    def make(tag, delay):
        def p():
            yield env.timeout(delay)
            seen.append(tag)

        return p

    for tag, delay in [("a", 2), ("b", 1), ("c", 2), ("d", 0)]:
        env.process(make(tag, delay)())
    env.run()
    assert seen == ["d", "b", "a", "c"]


def test_run_until_deadline_stops_midway():
    env = Environment()
    seen = []

    def p():
        for _ in range(10):
            yield env.timeout(1)
            seen.append(env.now)

    env.process(p())
    env.run(until=3.5)
    assert seen == [1, 2, 3]
    assert env.now == 3.5


def test_manual_event_succeed_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    env.process(waiter())

    def firer():
        yield env.timeout(2)
        ev.succeed("hello")

    env.process(firer())
    env.run()
    assert got == ["hello"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "survived"

    proc = env.process(waiter())

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(firer())
    assert env.run(until=proc) == "survived"


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_interrupt_breaks_timeout_wait():
    env = Environment()
    outcome = {}

    def sleeper():
        try:
            yield env.timeout(100)
            outcome["finished"] = True
        except Interrupt as err:
            outcome["cause"] = err.cause
            outcome["at"] = env.now

    victim = env.process(sleeper())

    def killer():
        yield env.timeout(7)
        victim.interrupt("power cycle")

    env.process(killer())
    env.run()
    assert outcome == {"cause": "power cycle", "at": 7}


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def resilient():
        try:
            yield env.timeout(50)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5)
        log.append(("done", env.now))

    victim = env.process(resilient())

    def killer():
        yield env.timeout(10)
        victim.interrupt()

    env.process(killer())
    env.run()
    assert log == [("interrupted", 10), ("done", 15)]


def test_interrupted_timeout_wait_does_not_resume_again():
    """The abandoned Timeout is still due; it must not wake the process
    out of the wait it took up after the interrupt."""
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(10.0, value="first")
        except Interrupt:
            value = yield env.timeout(20.0, value="second")
            return (value, env.now)

    victim = env.process(sleeper())

    def killer():
        yield env.timeout(5.0)
        victim.interrupt()

    env.process(killer())
    assert env.run(until=victim) == ("second", 25.0)


def test_interrupt_right_after_yielding_a_dispatched_event():
    """The wake that delivers a dispatched event's value is abandoned by
    the interrupt, so it cannot resume the process's next wait."""
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run()
    log = []

    def waiter():
        try:
            yield done
        except Interrupt:
            log.append(("interrupted", env.now))
        value = yield env.timeout(10.0, value="later")
        log.append((value, env.now))

    victim = env.process(waiter())

    def killer():
        victim.interrupt()
        yield env.timeout(0.0)

    env.process(killer())
    env.run()
    assert log == [("interrupted", 0.0), ("later", 10.0)]


def test_interrupt_from_a_callback_of_the_awaited_event():
    """A process interrupted while the event it waits on is being
    dispatched is resumed by the interrupt alone, not also by the event."""
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        try:
            yield gate
            log.append(("gate", env.now))
        except Interrupt:
            log.append(("interrupted", env.now))
        value = yield env.timeout(10.0, value="later")
        log.append((value, env.now))

    def opener():
        yield gate
        victim.interrupt()

    env.process(opener())  # waits on the gate before the victim does
    victim = env.process(waiter())

    def trigger():
        yield env.timeout(1.0)
        gate.succeed()

    env.process(trigger())
    env.run()
    assert log == [("interrupted", 1.0), ("later", 11.0)]


def test_all_of_waits_for_every_event():
    env = Environment()

    def worker(d):
        yield env.timeout(d)
        return d

    def main():
        procs = [env.process(worker(d)) for d in (3, 1, 2)]
        values = yield AllOf(env, procs)
        return (env.now, values)

    when, values = env.run(until=env.process(main()))
    assert when == 3
    assert values == (3, 1, 2)


def test_any_of_returns_first():
    env = Environment()

    def worker(d):
        yield env.timeout(d)
        return d

    def main():
        procs = [env.process(worker(d)) for d in (5, 2, 9)]
        first = yield AnyOf(env, procs)
        return (env.now, first)

    when, first = env.run(until=env.process(main()))
    assert when == 2
    assert first == 2


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="must yield events"):
        env.process(bad())
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise RuntimeError("install failed")

    def main():
        try:
            yield env.process(failing())
        except RuntimeError as err:
            return str(err)

    assert env.run(until=env.process(main())) == "install failed"


def test_run_until_event_requires_pending_work():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4)
    assert env.peek() == 4


def test_zero_delay_timeout_runs_same_timestamp():
    env = Environment()
    seen = []

    def p():
        yield env.timeout(0)
        seen.append(env.now)

    env.process(p())
    env.run()
    assert seen == [0.0]


def test_interleaved_processes_share_clock():
    env = Environment()
    trace = []

    def ping():
        for _ in range(3):
            yield env.timeout(2)
            trace.append(("ping", env.now))

    def pong():
        yield env.timeout(1)
        for _ in range(3):
            yield env.timeout(2)
            trace.append(("pong", env.now))

    env.process(ping())
    env.process(pong())
    env.run()
    assert trace == [
        ("ping", 2),
        ("pong", 3),
        ("ping", 4),
        ("pong", 5),
        ("ping", 6),
        ("pong", 7),
    ]


# -- run(until=event) with a cancelled stop event ---------------------------

def test_run_until_cancelled_event_raises_immediately():
    env = Environment()
    stop = env.event()
    env.timeout(100.0)  # unrelated pending work
    env.cancel(stop)
    with pytest.raises(SimulationError, match="cancelled"):
        env.run(until=stop)
    # The failure is immediate: the queue was not drained to prove it.
    assert env.now == 0.0
    assert env.peek() == 100.0


def test_run_until_event_cancelled_mid_run_raises():
    env = Environment()
    stop = env.event()

    def saboteur():
        yield env.timeout(1.0)
        env.cancel(stop)

    env.process(saboteur())
    env.timeout(100.0)
    with pytest.raises(SimulationError, match="cancelled"):
        env.run(until=stop)
    # Raised right after the cancellation, not after draining to t=100.
    assert env.now == 1.0
    assert 100.0 in [entry[0] for entry in env._queue]


# -- slotted timeouts -------------------------------------------------------

def test_slotted_timeout_shares_one_event_per_due_time():
    env = Environment()
    a = env.slotted_timeout(5.0)
    b = env.slotted_timeout(5.0)
    assert a is b
    assert env.slotted_timeout(6.0) is not a


def test_slotted_timeout_keys_on_absolute_due_time():
    env = Environment()
    early = env.slotted_timeout(5.0)  # due t=5

    def later():
        yield env.timeout(1.0)
        # Requested at t=1 with delay 4: same absolute due, same slot.
        assert env.slotted_timeout(4.0) is early

    env.process(later())
    env.run()


def test_slotted_timeout_wakes_every_waiter_and_cleans_up():
    env = Environment()
    woke = []

    def sleeper(name):
        yield env.slotted_timeout(7.0)
        woke.append((name, env.now))

    for name in ("a", "b", "c"):
        env.process(sleeper(name), name=name)
    env.run()
    assert woke == [("a", 7.0), ("b", 7.0), ("c", 7.0)]
    assert env._slots == {}  # fired slots are reaped
    # A new request for the same delay gets a fresh slot at the new due.
    again = env.slotted_timeout(7.0)
    assert again.delay == 7.0 and env._slots


def test_slotted_timeout_survives_interrupted_waiter():
    env = Environment()
    woke = []

    def sleeper(name):
        try:
            yield env.slotted_timeout(10.0)
            woke.append((name, env.now))
        except Interrupt:
            woke.append((name, "interrupted", env.now))

    procs = [env.process(sleeper(n), name=n) for n in ("a", "b")]

    def meddler():
        yield env.timeout(3.0)
        procs[0].interrupt()

    env.process(meddler())
    env.run()
    # The shared slot still fires for the remaining waiter.
    assert woke == [("a", "interrupted", 3.0), ("b", 10.0)]


def test_cancel_never_scheduled_event_is_accounted():
    env = Environment()
    ev = env.event()
    env.cancel(ev)
    env.cancel(ev)  # idempotent
    assert ev._cancelled
    # Cancelled-then-triggered events are skipped without accounting drift.
    env.timeout(1.0)
    env.run()
    assert env.now == 1.0


@pytest.mark.parametrize("drain", ["run", "step", "sanitized-step"])
def test_cancelled_timer_does_not_move_the_clock(drain):
    """Draining a queue whose last entry is a cancelled deadline ends at
    the last event that happened, not at the deadline's due time."""
    from repro.analysis.sanitizer import SanitizedEnvironment

    env = SanitizedEnvironment() if drain == "sanitized-step" else Environment()
    env.timeout(5.0)
    env.cancel(env.timeout(300.0))
    if drain == "run":
        env.run()
    else:
        while env.peek() != float("inf"):
            env.step()
    assert env.now == 5.0
