"""Checks shared by every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process running (a snapshot writer
    that was not joined); the leftover is stopped so the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"processes left running: {left}"
