"""Unit tests: generator processes."""

import pytest

from repro.sim import Engine, SimulationError, StopProcess


@pytest.fixture
def engine():
    return Engine()


class TestLifecycle:
    def test_return_value_becomes_event_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return "result"

        p = engine.spawn(proc())
        assert engine.run(p) == "result"

    def test_process_is_alive_until_done(self, engine):
        def proc():
            yield engine.timeout(1.0)

        p = engine.spawn(proc())
        assert p.is_alive
        engine.run(p)
        assert not p.is_alive

    def test_immediate_return(self, engine):
        def proc():
            return "now"
            yield  # pragma: no cover

        p = engine.spawn(proc())
        assert engine.run(p) == "now"

    def test_stop_process_exception(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise StopProcess("early")
            yield engine.timeout(1.0)  # pragma: no cover

        p = engine.spawn(proc())
        assert engine.run(p) == "early"
        assert engine.now == 1.0

    def test_exception_propagates_to_waiter(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise ValueError("inner")

        def waiter():
            try:
                yield engine.spawn(bad())
            except ValueError as exc:
                return f"caught {exc}"

        p = engine.spawn(waiter())
        assert engine.run(p) == "caught inner"

    def test_unhandled_process_exception_surfaces(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise ValueError("unhandled")

        engine.spawn(bad())
        with pytest.raises(ValueError, match="unhandled"):
            engine.run()

    def test_non_event_yield_raises_into_generator(self, engine):
        def proc():
            with pytest.raises(SimulationError):
                yield 42
            return "recovered"

        p = engine.spawn(proc())
        assert engine.run(p) == "recovered"


class TestWaiting:
    def test_processes_wait_on_each_other(self, engine):
        def child():
            yield engine.timeout(2.0)
            return 7

        def parent():
            value = yield engine.spawn(child())
            return value * 3

        p = engine.spawn(parent())
        assert engine.run(p) == 21

    def test_yield_from_delegation(self, engine):
        def inner():
            yield engine.timeout(1.0)
            return "deep"

        def outer():
            value = yield from inner()
            return value.upper()

        p = engine.spawn(outer())
        assert engine.run(p) == "DEEP"

    def test_waiting_on_already_done_process(self, engine):
        def quick():
            return 5
            yield  # pragma: no cover

        child = engine.spawn(quick())
        engine.run(child)

        def late():
            value = yield child
            return value

        p = engine.spawn(late())
        assert engine.run(p) == 5

    def test_two_waiters_same_event(self, engine):
        ev = engine.timeout(1.0, "shared")
        results = []

        def waiter(tag):
            value = yield ev
            results.append((tag, value))

        engine.spawn(waiter("a"))
        engine.spawn(waiter("b"))
        engine.run()
        assert sorted(results) == [("a", "shared"), ("b", "shared")]
