"""The forked child that computes bytes while its parent goes on."""

import os
import threading
import time

import pytest

from cscshare import _fork


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "fn, expected",
    [
        (lambda: b"sent", b"sent"),
        (lambda: None, None),
        (lambda: b"", None),
        (lambda: 1 / 0, None),
        (lambda: os._exit(3), None),
    ],
    ids=["bytes", "none", "empty", "raises", "exits-3"],
)
def test_the_result_is_what_a_child_that_exits_0_sent(two_cores, tmp_path, fn, expected):
    """Only the parent goes on from the fork: the line after it runs once."""
    marks = tmp_path / "marks"
    with _fork.Child(fn) as child:
        with open(marks, "a") as stream:
            stream.write(".")
        assert child.result() == expected
    assert marks.read_text() == "."
    _assert_no_child_left()


def test_a_large_result_is_read_whole(two_cores):
    """The parent reads the pipe to its end before it waits for the child."""
    sent = bytes(range(256)) * 4096
    with _fork.Child(lambda: sent) as child:
        assert child.result() == sent
    _assert_no_child_left()


def test_leaving_the_block_kills_and_reaps_a_running_child(two_cores):
    start = time.monotonic()
    with pytest.raises(KeyError):
        with _fork.Child(time.sleep, 60):
            raise KeyError("the caller failed")
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_no_child_where_a_fork_may_not_pay_or_be_safe(monkeypatch):
    """On one core, with another thread running, or without ``os.fork``,
    there is no child and no result; the caller does the work."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _fork.cores() == 1 and _fork.Child(lambda: b"sent").result() is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _fork.cores() == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _fork.cores() == 1 and _fork.Child(lambda: b"sent").result() is None
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert _fork.cores() == 1 and _fork.Child(lambda: b"sent").result() is None
    assert forks == []
