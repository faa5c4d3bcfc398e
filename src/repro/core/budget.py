"""Resource budgets and the structured error taxonomy.

Every "give up" path of the analysis used to speak its own dialect:
``RuntimeError`` subclasses in :mod:`repro.automata.emptiness`, ad-hoc
deadline checks sprinkled through the refinement loop, and unguarded
growth everywhere else (the Fourier--Motzkin combination step, the
simulation solvers).  This module gives them one vocabulary:

- :class:`ReproError` is the root of every error the analysis raises
  deliberately (resource exhaustion, injected faults),
- :class:`ResourceExhausted` carries *which* resource ran out, so the
  refinement loop can decide between falling down the degradation
  ladder (state/constraint blowups) and giving up (deadline),
- :class:`DeadlineExceeded` is the wall-clock case -- once the deadline
  passed there is no cheaper stage worth trying,
- :class:`Budget` bundles the deadline and the two solver caps and
  counts their consumption.

A budget is *threaded* where the call graph allows it (the difference
pipeline takes explicit ``state_limit``/``deadline`` arguments) and
*scoped* where it does not: :func:`use_budget` installs the engine's
budget in a module global, mirroring the registry scoping of
:mod:`repro.obs.metrics`, so the Fourier--Motzkin core, the simulation
solvers and the modular complement can consult it without every
intermediate signature changing.  All guards are nil-checked
(``current_budget() is None`` outside an engine run), so standalone
library use pays one attribute load per checkpoint.

This module must stay a leaf (standard library imports only): it is
imported from :mod:`repro.logic` and :mod:`repro.automata`, which load
*during* ``repro.core`` package initialization.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Root of every deliberate analysis error (see module docstring)."""


class ResourceExhausted(ReproError):
    """A budget cap was exceeded.

    ``resource`` names the cap (``"deadline"``, ``"difference-states"``,
    ``"fm-constraints"``, ``"simulation"``); the
    refinement loop keys its recovery on it.
    """

    def __init__(self, resource: str, detail: str = "",
                 limit: float | int | None = None):
        message = f"{resource} budget exhausted"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.resource = resource
        self.detail = detail
        self.limit = limit


class DeadlineExceeded(ResourceExhausted):
    """The wall-clock deadline passed; no cheaper stage can help."""

    def __init__(self, detail: str = "", deadline: float | None = None):
        super().__init__("deadline", detail, deadline)
        self.deadline = deadline


class Budget:
    """Caps for one analysis run, with consumption counters.

    ``deadline`` is an absolute :func:`time.perf_counter` value.
    ``fm_constraint_cap`` bounds the size of each Fourier--Motzkin
    system, ``simulation_cap`` the candidate pairs of all simulation
    solves of the run.  ``None`` disables a cap.
    Checkpoints raise :class:`ResourceExhausted` (or its
    :class:`DeadlineExceeded` subclass); callers that can degrade catch
    at round boundaries, everyone else lets it propagate.
    """

    __slots__ = ("deadline", "fm_constraint_cap", "simulation_cap",
                 "fm_checks", "simulation_pairs")

    #: Deadline polling stride for the Fourier--Motzkin checkpoints: one
    #: ``perf_counter`` call per this many charges.
    CHECK_EVERY = 256

    def __init__(self, deadline: float | None = None, *,
                 fm_constraint_cap: int | None = None,
                 simulation_cap: int | None = None):
        self.deadline = deadline
        self.fm_constraint_cap = fm_constraint_cap
        self.simulation_cap = simulation_cap
        self.fm_checks = 0
        self.simulation_pairs = 0

    def check_deadline(self, where: str = "") -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded(where, self.deadline)

    def charge_fm(self, constraints: int) -> None:
        """Checkpoint one Fourier--Motzkin elimination round.

        ``constraints`` is the current system size -- FM can square the
        constraint count per eliminated variable, and this is the only
        guard between a pathological conjunction and an effectively hung
        solver call.  Doubles as the solver's cooperative deadline poll.
        """
        if (self.fm_constraint_cap is not None
                and constraints > self.fm_constraint_cap):
            raise ResourceExhausted("fm-constraints",
                                    f"{constraints} constraints",
                                    self.fm_constraint_cap)
        self.fm_checks += 1
        if self.fm_checks % self.CHECK_EVERY == 0:
            self.check_deadline("fourier-motzkin")

    def charge_simulation(self, pairs: int) -> None:
        """Charge ``pairs`` candidate pairs of a simulation solve.

        Simulation-based reduction is an *optimization*: callers catch
        the plain :class:`ResourceExhausted` (never the deadline
        subclass) and fall back to the unreduced pipeline, so a blown
        cap costs nothing but the reduction itself.  Doubles as the
        solvers' cooperative deadline poll.
        """
        self.simulation_pairs += pairs
        if (self.simulation_cap is not None
                and self.simulation_pairs > self.simulation_cap):
            raise ResourceExhausted("simulation",
                                    f"{self.simulation_pairs} candidate pairs",
                                    self.simulation_cap)
        self.check_deadline("simulation")


_CURRENT: Budget | None = None


def current_budget() -> Budget | None:
    """The budget scoped to the running analysis, if any."""
    return _CURRENT


@contextmanager
def use_budget(budget: Budget | None) -> Iterator[Budget | None]:
    """Scope ``budget`` as the ambient budget (``None`` clears it --
    the verdict firewall re-validates outside any budget)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = budget
    try:
        yield budget
    finally:
        _CURRENT = previous
