"""Unit tests for kernel futures."""

import pytest

from repro.errors import CancelledError, InvalidStateError
from repro.kernel import Future, completed, failed


def test_future_starts_pending():
    fut = Future("x")
    assert not fut.done()
    assert not fut.cancelled()


def test_result_before_done_raises():
    fut = Future()
    with pytest.raises(InvalidStateError):
        fut.result()
    with pytest.raises(InvalidStateError):
        fut.exception()


def test_set_result_resolves():
    fut = Future()
    fut.set_result(42)
    assert fut.done()
    assert fut.result() == 42
    assert fut.exception() is None


def test_set_exception_rejects():
    fut = Future()
    fut.set_exception(ValueError("boom"))
    assert fut.done()
    with pytest.raises(ValueError, match="boom"):
        fut.result()
    assert isinstance(fut.exception(), ValueError)


def test_double_resolution_raises():
    fut = Future()
    fut.set_result(1)
    with pytest.raises(InvalidStateError):
        fut.set_result(2)
    with pytest.raises(InvalidStateError):
        fut.set_exception(RuntimeError())


def test_cancel_pending_future():
    fut = Future("c")
    assert fut.cancel()
    assert fut.cancelled()
    with pytest.raises(CancelledError):
        fut.result()


def test_cancel_done_future_is_noop():
    fut = Future()
    fut.set_result(1)
    assert not fut.cancel()
    assert fut.result() == 1


def test_callbacks_run_on_resolution_in_order():
    fut = Future()
    seen = []
    fut.add_done_callback(lambda f: seen.append(("a", f.result())))
    fut.add_done_callback(lambda f: seen.append(("b", f.result())))
    fut.set_result(7)
    assert seen == [("a", 7), ("b", 7)]


def test_callback_on_already_done_future_runs_immediately():
    fut = completed(5)
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    assert seen == [5]


def test_completed_and_failed_helpers():
    assert completed("v").result() == "v"
    with pytest.raises(KeyError):
        failed(KeyError("k")).result()
