"""Deterministic fault injection for the resilient LP-CPM runner.

Long CPM runs die in boring ways — a worker OOM-killed mid-batch, a
stalled NFS read, a driver crash between phases — and none of those
ways show up in an ordinary test run.  A :class:`FaultPlan` makes them
reproducible: it is a small list of rules, each naming a *site* in the
pipeline (an enumeration shard, or a driver phase boundary) and an
*action* to inject there (kill the process, raise an exception, or
sleep).  The supervisor threads the plan into worker tasks and the
driver fires it at phase boundaries, so the retry, degradation and
resume paths of :mod:`repro.runner` are exercised by plain
deterministic tests — and by the CI ``fault-smoke`` job.

Plans parse from a compact spec string (the ``REPRO_FAULT_PLAN``
environment variable)::

    enumerate:shard=0:kill              # kill the worker running shard 0, every attempt
    enumerate:shard=1:raise:times=2     # fail shard 1 on its first two attempts only
    enumerate:shard=0:delay=0.5         # stall shard 0 by half a second
    driver:after=overlap:kill           # kill the driver right after the overlap phase

Rules are ``;``-separated.  ``times=N`` limits a rule to the first N
attempts of its site (so a transient fault heals under retry); without
it the rule fires on every attempt (a permanent fault, forcing the
supervisor's serial degradation).  Enumeration is the only phase that
runs on a worker pool, so ``enumerate`` is the only worker site: a
worker rule naming another phase could never fire, and parsing rejects
it.  Driver rules take any of the three phase boundaries.  Worker
processes receive the plan as its spec string inside their task tuple
— no shared state, works under both fork and spawn start methods.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = ["FaultPlan", "FaultRule", "InjectedFault", "FAULT_PLAN_ENV"]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The pipeline phases, in order: the boundaries a driver rule can name.
_PHASES = ("enumerate", "overlap", "percolate")
#: The one phase whose tasks run on a worker pool.
_WORKER_SITE = "enumerate"
_SITES = _PHASES + ("driver",)
_ACTIONS = ("kill", "raise", "delay")

#: Exit status of a worker (or driver) killed by an injected fault —
#: distinctive enough to recognise in CI logs.
KILL_EXIT_CODE = 173


class InjectedFault(RuntimeError):
    """Raised (in a worker or the driver) by a ``raise`` fault rule."""

    def __init__(self, site: str, index: int | None, attempt: int) -> None:
        where = site if index is None else f"{site}[{index}]"
        super().__init__(f"injected fault at {where} (attempt {attempt})")
        self.site = site
        self.index = index
        self.attempt = attempt

    def __reduce__(self):
        """Pickle via the constructor args, not ``Exception.args``.

        Without this the exception cannot cross the process boundary:
        the parent's unpickle would call ``InjectedFault(message)`` and
        die, turning a clean task failure into a broken pool.
        """
        return (type(self), (self.site, self.index, self.attempt))


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where it fires, what it does, how often."""

    site: str
    action: str
    index: int | None = None  # batch/shard selector (None = any)
    after: str | None = None  # driver rules: phase boundary selector
    seconds: float = 0.0  # delay action only
    times: int | None = None  # fire on attempts < times (None = always)

    def matches(self, site: str, index: int | None, attempt: int) -> bool:
        """True iff this rule fires at the given site/index/attempt."""
        if self.site != site:
            return False
        if self.index is not None and self.index != index:
            return False
        return self.times is None or attempt < self.times

    def to_spec(self) -> str:
        """The rule in spec-string form (round-trips through parsing)."""
        parts = [self.site]
        if self.index is not None:
            parts.append(f"batch={self.index}")
        if self.after is not None:
            parts.append(f"after={self.after}")
        parts.append(f"delay={self.seconds:g}" if self.action == "delay" else self.action)
        if self.times is not None:
            parts.append(f"times={self.times}")
        return ":".join(parts)


def _parse_rule(text: str) -> FaultRule:
    site = None
    action = None
    index = None
    after = None
    seconds = 0.0
    times = None
    for part in text.split(":"):
        part = part.strip()
        if not part:
            continue
        if part in _SITES and site is None:
            site = part
        elif part in ("kill", "raise"):
            action = part
        elif part.startswith("delay="):
            action = "delay"
            seconds = float(part.split("=", 1)[1])
        elif part.startswith(("batch=", "shard=")):
            index = int(part.split("=", 1)[1])
        elif part.startswith("after="):
            after = part.split("=", 1)[1]
            if after not in _PHASES:
                raise ValueError(f"unknown phase in fault rule {text!r}: {after!r}")
        elif part.startswith("times="):
            times = int(part.split("=", 1)[1])
        else:
            raise ValueError(f"cannot parse fault rule component {part!r} in {text!r}")
    if site is None or action is None:
        raise ValueError(f"fault rule {text!r} needs a site and an action")
    if site == "driver" and after is None:
        raise ValueError(f"driver fault rule {text!r} needs after=<phase>")
    if site not in ("driver", _WORKER_SITE):
        raise ValueError(
            f"fault rule {text!r} targets {site!r}, which runs no worker tasks; "
            f"worker rules fire only at {_WORKER_SITE!r}"
        )
    return FaultRule(site=site, action=action, index=index, after=after,
                     seconds=seconds, times=times)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of :class:`FaultRule`\\ s.

    >>> plan = FaultPlan.parse("enumerate:shard=0:raise:times=1")
    >>> plan.fire("enumerate", index=0, attempt=1)  # healed on retry
    >>> plan.fire("enumerate", index=0, attempt=0)
    Traceback (most recent call last):
        ...
    repro.runner.faults.InjectedFault: injected fault at enumerate[0] (attempt 0)
    """

    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``;``-separated spec string."""
        rules = tuple(_parse_rule(r) for r in spec.split(";") if r.strip())
        return cls(rules=rules)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan in ``$REPRO_FAULT_PLAN``, or None when unset/empty."""
        spec = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    @property
    def spec(self) -> str:
        """Canonical spec string (what workers receive in their tasks)."""
        return ";".join(rule.to_spec() for rule in self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, site: str, *, index: int | None = None, attempt: int = 0) -> None:
        """Inject the first matching rule's action at a worker site (if any)."""
        for rule in self.rules:
            if rule.site == "driver" or not rule.matches(site, index, attempt):
                continue
            self._act(rule, site, index, attempt)
            return

    def fire_boundary(self, after: str) -> None:
        """Inject any ``driver:after=<phase>`` rule at a phase boundary."""
        for rule in self.rules:
            if rule.site == "driver" and rule.after == after:
                self._act(rule, "driver", None, 0)
                return

    @staticmethod
    def _act(rule: FaultRule, site: str, index: int | None, attempt: int) -> None:
        if rule.action == "delay":
            time.sleep(rule.seconds)
        elif rule.action == "raise":
            raise InjectedFault(site, index, attempt)
        else:  # kill: simulate SIGKILL/OOM — no exception, no cleanup
            os._exit(KILL_EXIT_CODE)
