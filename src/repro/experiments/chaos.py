"""Chaos injection for the sweep executor's fault-tolerance tests.

The execution harness claims to survive worker crashes, hangs and
out-of-memory failures.  Claims like that rot unless the failure modes
are reproducible on demand, so :func:`maybe_inject` sits at the top of
:func:`~repro.experiments.warm.run_point_warm` and — **only** when the
``REPRO_CHAOS`` environment variable is set — sabotages matching points:

* ``crash`` — ``SIGKILL`` the executing process (a worker dying takes
  the whole ``ProcessPoolExecutor`` down as ``BrokenProcessPool``);
* ``hang`` — sleep far past any reasonable timeout.  Interruptible by
  the executor's ``SIGALRM`` soft-timeout guard, so this exercises the
  in-worker timeout path;
* ``hang_hard`` — block ``SIGALRM`` first, then sleep: immune to the
  soft guard, so only the supervisor's hard-deadline pool kill can
  recover.  Exercises the kill-and-respawn path;
* ``oom`` — raise :class:`MemoryError` (simulated: nothing is actually
  allocated, the executor cannot tell the difference);
* ``error`` — raise a plain :class:`RuntimeError`, the generic
  retry-path probe.

Spec grammar (the env var's value)::

    directive[;directive...]
    directive = mode[*times]:label

``label`` is compared *exactly* against the sweep point's label (labels
routinely contain ``=``, ``/``, ``@`` and ``,``, so ``;`` separates
directives and only the first ``:`` splits mode from label).  ``times``
bounds injection to attempts ``<= times`` (default 1), so a point that
crashes on its first attempt succeeds on retry — exactly the recovery
the tests need to prove.

The environment is read per call, which costs one dict lookup when chaos
is off; parsing is memoised on the spec string.  Worker processes
inherit the parent's environment at pool creation, so setting the
variable before building the executor reaches every worker.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigError

#: The environment variable carrying the chaos spec.
ENV_VAR = "REPRO_CHAOS"

#: Seconds a ``hang``/``hang_hard`` directive sleeps: far beyond any
#: sane per-point timeout, so an unguarded hang is unmistakable.
HANG_SECONDS = 3600.0

#: The sabotage modes :func:`maybe_inject` implements.
MODES = ("crash", "hang", "hang_hard", "oom", "error")


@dataclass(frozen=True)
class ChaosDirective:
    """One sabotage order: ``mode`` against ``label``, first ``times``
    attempts only."""

    mode: str
    label: str
    times: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(
                f"unknown chaos mode {self.mode!r}; known: {MODES}"
            )
        if self.times < 1:
            raise ConfigError(
                f"chaos times must be >= 1, got {self.times!r}"
            )
        if not self.label:
            raise ConfigError("chaos directive needs a point label")

    def matches(self, label: str, attempt: int) -> bool:
        return label == self.label and attempt <= self.times


def parse_chaos_spec(spec: str) -> tuple[ChaosDirective, ...]:
    """Parse a ``REPRO_CHAOS`` value into directives.

    >>> parse_chaos_spec("crash:baseline/light")
    (ChaosDirective(mode='crash', label='baseline/light', times=1),)
    >>> parse_chaos_spec("hang*2:Tw=100/heavy;oom:T=0.5/light")[0].times
    2
    """
    directives = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        head, sep, label = part.partition(":")
        if not sep:
            raise ConfigError(
                f"malformed chaos directive {part!r}: expected "
                "'mode[*times]:label'"
            )
        mode, star, times_text = head.partition("*")
        if star:
            try:
                times = int(times_text)
            except ValueError:
                raise ConfigError(
                    f"malformed chaos repeat count {times_text!r} "
                    f"in {part!r}"
                ) from None
        else:
            times = 1
        directives.append(ChaosDirective(mode=mode.strip(), label=label,
                                         times=times))
    if not directives:
        raise ConfigError(f"empty chaos spec {spec!r}")
    return tuple(directives)


@lru_cache(maxsize=8)
def _cached_plan(spec: str) -> tuple[ChaosDirective, ...]:
    return parse_chaos_spec(spec)


def maybe_inject(label: str, attempt: int) -> None:
    """Sabotage the current point if the environment orders it.

    Called at the top of ``run_point_warm``; a no-op (one ``environ`` lookup)
    unless :data:`ENV_VAR` is set.  ``crash`` never returns; ``hang`` /
    ``hang_hard`` return only if something interrupts the sleep; the
    other modes raise.
    """
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return
    for directive in _cached_plan(spec):
        if directive.matches(label, attempt):
            _execute(directive, label, attempt)


def _execute(directive: ChaosDirective, label: str, attempt: int) -> None:
    mode = directive.mode
    if mode == "crash":
        # A real worker death: no exception, no cleanup, no unpickle.
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(HANG_SECONDS)
    elif mode == "hang_hard":
        # Immunise against the executor's in-worker SIGALRM guard, then
        # hang: only the supervisor's hard-deadline kill gets us out.
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(HANG_SECONDS)
    elif mode == "oom":
        raise MemoryError(
            f"chaos oom injected into {label!r} (attempt {attempt})"
        )
    else:
        raise RuntimeError(
            f"chaos error injected into {label!r} (attempt {attempt})"
        )
