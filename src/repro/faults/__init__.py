"""Deterministic fault injection for robustness testing.

A :class:`FaultPlan` is a seeded description of *what to break*:
injectable crashes and delays at the pipeline's failure-prone sites
(solver entailment, LP feasibility, NCSB expansion, the difference
pipeline, worker entry), plus -- in adversarial mode -- plausible but
*wrong* solver answers that only the verdict firewall
(:mod:`repro.core.firewall`) stands between and an unsound verdict.

Determinism is the point: every site draws from its own
``random.Random(f"{seed}:{site}")`` stream, so a plan replays
identically across runs, processes, and retries -- a chaos failure
reproduces from its seed alone.

Activation composes with the rest of the system:

- ``AnalysisConfig.fault_plan`` (a JSON string) scopes a plan to one
  analysis -- it travels through ``to_dict``/``from_dict``, so corpus
  manifests and worker payloads carry it for free and chaos rows get
  their own resume keys,
- the ``REPRO_FAULT_PLAN`` environment variable applies a plan
  process-wide (the CLI path),
- :func:`use_plan` scopes a plan in-process (tests).

The firewall re-validates verdicts under :func:`suspended`, so an
adversarial plan cannot corrupt the checker that is supposed to catch
it.  Injection sites are nil-guarded on the module global
(:data:`_ACTIVE`), costing one load-and-compare when no plan is active.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Iterator

from repro.core.budget import ReproError

#: Environment variable holding a process-wide plan (JSON).
ENV_VAR = "REPRO_FAULT_PLAN"

#: Injection sites, for reference and plan validation.
SITES = (
    "solver.entailment",   # LinConj.entails_atom (wrong answers here)
    "solver.lp",           # LinearProgram.check_feasible
    "complement.ncsb",     # NCSB successor expansion
    "complement.modular",  # modular round-robin successor expansion
    "difference",          # difference-pipeline entry
    "worker",              # runner task entry (crash = killed worker)
    "checkpoint.write",    # durable checkpoint save (torn/partial write)
    "library.publish",     # module-library append (tampered entry)
)


class InjectedFault(ReproError):
    """A crash injected by the active fault plan."""

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        self.site = site


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, site-uniform fault rates (see module docstring).

    ``sites`` restricts injection to sites whose name starts with one
    of the given prefixes (empty = all sites).  ``wrong_answer_rate``
    is the adversarial mode: solver booleans are flipped at that rate,
    producing exactly the plausible-but-wrong answers the firewall
    must catch.
    """

    seed: int = 0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.002
    wrong_answer_rate: float = 0.0
    sites: tuple[str, ...] = ()

    def to_json(self) -> str:
        data = asdict(self)
        data["sites"] = list(self.sites)
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        for key, value in data.items():
            if key == "sites":
                ok = (isinstance(value, list)
                      and all(isinstance(site, str) for site in value))
            else:  # seed is an int, the rates and delay numbers
                ok = not isinstance(value, bool) and isinstance(
                    value, int if key == "seed" else (int, float))
            if not ok:
                raise ValueError(f"fault-plan key {key!r} has the wrong "
                                 f"type: {value!r}")
        if "sites" in data:
            data["sites"] = tuple(data["sites"])
        return cls(**data)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        text = os.environ.get(ENV_VAR)
        return cls.from_json(text) if text else None


class _Injector:
    """Live injection state for one scoped plan."""

    __slots__ = ("plan", "suspend_depth", "injected", "_rngs")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.suspend_depth = 0
        #: ``site -> {"crash": n, "delay": n, "flip": n}`` counts.
        self.injected: dict[str, dict[str, int]] = {}
        self._rngs: dict[str, random.Random] = {}

    def rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.plan.seed}:{site}")
        return rng

    def applies(self, site: str) -> bool:
        if self.suspend_depth:
            return False
        sites = self.plan.sites
        return not sites or any(site.startswith(p) for p in sites)

    def count(self, site: str, what: str) -> None:
        per_site = self.injected.setdefault(site, {})
        per_site[what] = per_site.get(what, 0) + 1


_ACTIVE: _Injector | None = None


def injected_counts() -> dict[str, dict[str, int]]:
    """Per-site injection counts of the active scope (for incidents)."""
    return dict(_ACTIVE.injected) if _ACTIVE is not None else {}


@contextmanager
def use_plan(plan: FaultPlan | None) -> Iterator[None]:
    """Scope ``plan`` as the active fault plan (``None`` = no faults)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _Injector(plan) if plan is not None else None
    try:
        yield
    finally:
        _ACTIVE = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Disable injection inside the block (firewall re-validation must
    see the honest solver, or the checker itself would be corrupted)."""
    injector = _ACTIVE
    if injector is not None:
        injector.suspend_depth += 1
    try:
        yield
    finally:
        if injector is not None:
            injector.suspend_depth -= 1


def perturb(site: str) -> None:
    """Maybe crash or delay at ``site`` per the active plan.

    Call sites guard on :data:`_ACTIVE` themselves to keep the
    fault-free fast path to one global load.
    """
    injector = _ACTIVE
    if injector is None or not injector.applies(site):
        return
    plan = injector.plan
    rng = injector.rng(site)
    if plan.delay_rate and rng.random() < plan.delay_rate:
        injector.count(site, "delay")
        time.sleep(plan.delay_seconds)
    if plan.crash_rate and rng.random() < plan.crash_rate:
        injector.count(site, "crash")
        raise InjectedFault(site)


def filter_bool(site: str, value: bool) -> bool:
    """Adversarial mode: maybe flip a solver boolean at ``site``.

    Only the *returned* decision is corrupted -- caches underneath keep
    honest values, so suspending injection restores exact answers.
    """
    injector = _ACTIVE
    if injector is None or not injector.applies(site):
        return value
    plan = injector.plan
    if plan.wrong_answer_rate \
            and injector.rng(site).random() < plan.wrong_answer_rate:
        injector.count(site, "flip")
        return not value
    return value


def resolve_plan(config_fault_plan: str | None) -> FaultPlan | None:
    """The plan for one analysis: config JSON first, then the env."""
    if config_fault_plan:
        return FaultPlan.from_json(config_fault_plan)
    return FaultPlan.from_env()
