"""Fault injection for the sweep executor's tests.

``inject(mode, label)`` patches ``warm.run_point_warm``, the module
attribute the executor looks up for every point, so that the point
labelled ``label`` fails on every run while every other point runs
normally:

* ``crash`` — ``SIGKILL`` the executing process (in a pool worker this
  breaks the whole pool as ``BrokenProcessPool``);
* ``error`` — raise :class:`RuntimeError`;
* ``oom`` — raise :class:`MemoryError` (nothing is allocated).

Pool workers inherit the patch because they fork after it: enter the
context before the sweep starts its pool.
"""

import os
import signal
from contextlib import contextmanager

import pytest

from repro.experiments import warm


def _crash(label):
    os.kill(os.getpid(), signal.SIGKILL)


def _error(label):
    raise RuntimeError(f"injected error in {label!r}")


def _oom(label):
    raise MemoryError(f"injected oom in {label!r}")


MODES = {"crash": _crash, "error": _error, "oom": _oom}


@contextmanager
def inject(mode, label):
    """Make the point labelled ``label`` fail by ``mode`` while inside."""
    fault = MODES[mode]
    run = warm.run_point_warm

    def sabotaged(point):
        if point.label == label:
            fault(label)
        return run(point)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(warm, "run_point_warm", sabotaged)
        yield
