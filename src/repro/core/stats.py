"""Per-analysis statistics.

The evaluation section needs per-run counters: refinement rounds,
modules produced per stage, difference-automaton sizes, complement
exploration effort, and wall-clock times.  Every count lives in the
run's metrics registry (see :mod:`repro.obs.metrics`), whose snapshot
is ``AnalysisStats.metrics``; a round keeps the registry's counter
deltas over that round.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.obs import metrics as _metrics


@dataclass
class Incident:
    """A structured record of a degradation or validation failure.

    Incidents are the machine-readable audit trail of the robustness
    layer: when the verdict firewall rejects a certificate, when a
    round's candidate module blows a resource cap, or when a cap turns
    a run into UNKNOWN, one of these lands in
    ``AnalysisStats.incidents`` and the ``incidents.<kind>`` counter
    ticks in the run's metrics registry (both through
    :meth:`AnalysisStats.record_incident`).  These are every kind
    recorded:

    - ``firewall.certificate`` / ``firewall.emptiness`` /
      ``firewall.witness`` -- a conclusive verdict failed re-validation
      and was downgraded to UNKNOWN,
    - ``budget.degraded`` -- a candidate module blew a cap and the
      refinement loop moved on to the next one; ``component`` names
      what blew (``library``, ``generalize`` or ``difference``), or is
      ``checkpoint`` when re-subtracting restored modules stopped early,
    - ``budget.exhausted`` -- a cap ended the analysis (the lasso proof
      or the round's last candidate blew),
    - ``library.error`` -- the module-library lookup raised; the round
      went on without it,
    - ``checkpoint.rejected`` -- a persisted checkpoint failed its
      re-check and the run started cold.
    """

    kind: str
    component: str
    detail: str = ""
    round: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RefinementRound:
    """One iteration of the loop of Figure 1."""

    word: str
    proof_kind: str
    stage: str | None = None
    module_states: int = 0
    #: Size of the remainder the round ends with (after the companion
    #: subtraction, if any).
    difference_states: int = 0
    #: Stage of the free companion module subtracted in the same round
    #: (interpolant rounds), or None.
    companion_stage: str | None = None
    seconds: float = 0.0
    #: The nonzero deltas of the run's metrics counters over this round:
    #: its difference/complement effort (``difference.by_kind.<kind>``
    #: names the complement class, ``complement.modular.components.*``
    #: the modular split), its logic and ranking work, and so on.
    counters: dict = field(default_factory=dict)


@dataclass
class AnalysisStats:
    """What one analysis run observed: its rounds, counts and incidents.

    Only stored facts live here; :meth:`TerminationResult.to_dict
    <repro.core.refinement.TerminationResult.to_dict>` turns a run into
    its one JSON record.
    """

    program: str = ""
    config: str = ""
    rounds: list[RefinementRound] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Snapshot of the run's metrics registry (see :mod:`repro.obs.metrics`):
    #: ``{"counters": ..., "gauges": ..., "histograms": ...}``.  The
    #: only record of the run's counts; read one with :meth:`counter`.
    metrics: dict = field(default_factory=dict)
    #: Degradations and validation failures (see :class:`Incident`).
    incidents: list[Incident] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def peak_difference_states(self) -> int:
        """The largest remainder any round ended with."""
        return max((r.difference_states for r in self.rounds), default=0)

    def counter(self, name: str) -> int:
        """The run's total of counter ``name`` (0 when it never ticked),
        e.g. ``checkpoint.rounds_restored`` (rounds seeded from a
        checkpoint, which ``iterations`` leaves out) or ``library.hits``."""
        return self.metrics.get("counters", {}).get(name, 0)

    def record_incident(self, incident: Incident) -> None:
        """Append ``incident`` and count it as ``incidents.<kind>`` in
        the current metrics registry: the one place incidents are
        counted."""
        self.incidents.append(incident)
        _metrics.inc(f"incidents.{incident.kind}")

    def to_dict(self) -> dict:
        """The per-run part of a run's record (also one portfolio
        attempt's entry)."""
        return {
            "config": self.config,
            "seconds": self.total_seconds,
            "rounds": [asdict(r) for r in self.rounds],
            "metrics": self.metrics,
            "incidents": [i.to_dict() for i in self.incidents],
        }

