"""Forked workers: the values they send back."""

from __future__ import annotations

import pytest

from helpers import no_child_left
from qbandit.workers import Forked


def _values(*values):
    yield from values


def test_values_reach_the_parent_in_order():
    """Several values from one worker arrive as they were yielded: a str
    holding a lone surrogate, an int above 2^64 and a tuple.  Past the last
    one the worker has ended without a result."""
    sent = ["a\udc80b", 2**70, -(2**64) - 1, ("x", 0.1, None)]
    with Forked() as forked:
        forked.start(_values, *sent)
        forked.start(_values, "second")
        received = [forked.receive(0) for _ in sent]
        assert forked.receive(1) == "second"
        with pytest.raises(ChildProcessError, match="without a result"):
            forked.receive(0)
    assert received == sent
    assert no_child_left()
