"""Analysis configuration: stage sequences, optimizations, budgets.

The evaluation of Section 7 compares configurations along three axes,
all first-class here:

- **stage sequence**: single-stage (always ``M_nondet``) versus the
  multi-stage sequences (i)-(iii),
- **SDBA complementation**: NCSB-Original versus NCSB-Lazy,
- **subsumption**: the ``ceil(emp)`` antichain on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.stages import Stage


class StageSequence:
    """The named stage sequences of Section 7.

    One liberty over the paper's listing: the initial lasso module
    ``M_uvw`` is inserted before ``M_nondet``.  It always contains the
    sampled word and is almost always semideterministic (cheap NCSB
    complementation), so the expensive general-BA complementation is
    reached only when even the lasso module degenerates -- the paper
    explicitly allows extra intermediate constructions ("More
    intermediate constructions can be added into this multi-stage
    approach", Section 3.1).
    """

    #: The single-stage baseline of [33]: always generalize to M_nondet.
    SINGLE: tuple[Stage, ...] = (Stage.NONDET,)
    #: Sequence (i): uvw -> fin -> semi -> nondet (skip det) -- the default.
    SEQ_I: tuple[Stage, ...] = (Stage.FINITE, Stage.SEMIDET, Stage.LASSO,
                                Stage.NONDET)
    #: Sequence (ii): uvw -> fin -> det -> nondet (skip semi).
    SEQ_II: tuple[Stage, ...] = (Stage.FINITE, Stage.DETERMINISTIC,
                                 Stage.LASSO, Stage.NONDET)
    #: Sequence (iii): uvw -> fin -> det -> semi -> nondet.
    SEQ_III: tuple[Stage, ...] = (Stage.FINITE, Stage.DETERMINISTIC,
                                  Stage.SEMIDET, Stage.LASSO, Stage.NONDET)

    BY_NAME = {"single": SINGLE, "i": SEQ_I, "ii": SEQ_II, "iii": SEQ_III}


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the refinement engine."""

    #: Generalization stages to try, in order.
    stages: tuple[Stage, ...] = StageSequence.SEQ_I
    #: Use NCSB-Lazy (Section 5.3) instead of NCSB-Original for SDBAs.
    lazy_complement: bool = True
    #: Use the subsumption antichain (Section 6) in the difference.
    subsumption: bool = True
    #: Complement general (stage-4) modules through semi-determinization
    #: + NCSB instead of the rank-based construction.
    via_semidet: bool = False
    #: Let general modules with a genuinely mixed SCC condensation go
    #: through the per-SCC mix-and-match decomposition
    #: (:mod:`repro.automata.complement.modular`); a resource blow-up
    #: under the heuristic falls back to the monolithic path.  Takes
    #: precedence over ``via_semidet`` when the condensation is mixed.
    modular_complement: bool = True
    #: Pin one complementation procedure for every module subtraction
    #: (a :class:`~repro.automata.complement.dispatch.ComplementKind`
    #: value, e.g. ``"modular"`` or ``"rank-based"``); None keeps the
    #: class-aware dispatch.  The pin is best-effort: modules the kind
    #: cannot complement fall back to the dispatch for that subtraction.
    complement_kind: str | None = None
    #: Use the successor-index / memoization layer in the difference
    #: pipeline (CachedImplicitGBA wrappers + per-state edge lists).
    #: Off is only useful for ablation benchmarks.
    kernel_cache: bool = True
    #: Simulation-based reduction (Section 6.1): quotient the module
    #: automaton by direct-simulation equivalence before complementation
    #: and coarsen the subsumption antichain with a simulation on the
    #: subtrahend.  Off is only useful for ablation benchmarks.
    simulation_reduction: bool = True
    #: Candidate-pair budget per run for the simulation solvers (None =
    #: unbounded).  A blown cap skips the reduction, never the analysis.
    simulation_cap: int | None = 200_000
    #: Generalize infeasible counterexamples through interpolant-based
    #: semideterministic modules (Ultimate-style interpolant automata)
    #: instead of stage 1's prefix modules.
    interpolant_modules: bool = False
    #: Maximum refinement rounds before giving up.
    max_refinements: int = 60
    #: State budget for each difference computation (None = unbounded).
    difference_state_limit: int | None = 200_000
    #: Wall-clock budget in seconds (None = unbounded).
    timeout: float | None = None
    #: Try nontermination detection on unranked lassos.
    check_nontermination: bool = True
    #: Independently re-validate every conclusive verdict before it
    #: leaves ``prove_termination`` (see :mod:`repro.core.firewall`);
    #: failures downgrade to UNKNOWN, never a wrong answer.
    firewall: bool = True
    #: Total NCSB macro-states built per run (None = unbounded).
    macrostate_cap: int | None = None
    #: Size cap for the subsumption antichain (None = unbounded).
    antichain_cap: int | None = None
    #: Constraint-count cap per Fourier--Motzkin elimination -- the
    #: guard against the combination step's quadratic blowup.
    fm_constraint_cap: int | None = 20_000
    #: Deterministic fault plan as JSON (:mod:`repro.faults`), or None.
    #: Travels through ``to_dict``/``from_dict`` so manifests and
    #: worker payloads can switch chaos runs on per job.
    fault_plan: str | None = None

    def __post_init__(self):
        if self.complement_kind is not None:
            from repro.automata.complement.dispatch import ComplementKind
            ComplementKind(self.complement_kind)  # typo check: raises ValueError

    @staticmethod
    def single_stage(**kwargs) -> "AnalysisConfig":
        return AnalysisConfig(stages=StageSequence.SINGLE, **kwargs)

    @staticmethod
    def multi_stage(sequence: str = "i", **kwargs) -> "AnalysisConfig":
        return AnalysisConfig(stages=StageSequence.BY_NAME[sequence], **kwargs)

    def with_(self, **kwargs) -> "AnalysisConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-ready view; the inverse of :meth:`from_dict`.

        Used to ship configurations to worker processes and to key
        evaluation-store rows (see :mod:`repro.runner`), so it must
        stay a pure-JSON round trip: stages serialize by enum value.
        """
        return {
            "stages": [stage.value for stage in self.stages],
            "lazy_complement": self.lazy_complement,
            "subsumption": self.subsumption,
            "via_semidet": self.via_semidet,
            "modular_complement": self.modular_complement,
            "complement_kind": self.complement_kind,
            "kernel_cache": self.kernel_cache,
            "simulation_reduction": self.simulation_reduction,
            "simulation_cap": self.simulation_cap,
            "interpolant_modules": self.interpolant_modules,
            "max_refinements": self.max_refinements,
            "difference_state_limit": self.difference_state_limit,
            "timeout": self.timeout,
            "check_nontermination": self.check_nontermination,
            "firewall": self.firewall,
            "macrostate_cap": self.macrostate_cap,
            "antichain_cap": self.antichain_cap,
            "fm_constraint_cap": self.fm_constraint_cap,
            "fault_plan": self.fault_plan,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing keys take the field defaults (so hand-written manifest
        entries can name only the knobs they change); unknown keys are
        rejected to catch typos in manifests.
        """
        kwargs = dict(data)
        kwargs.pop("name", None)  # manifests may label their configs
        stages = kwargs.pop("stages", None)
        if stages is not None:
            if isinstance(stages, str):
                kwargs["stages"] = StageSequence.BY_NAME[stages]
            else:
                kwargs["stages"] = tuple(Stage(s) for s in stages)
        unknown = set(kwargs) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)

    def describe(self) -> str:
        names = {StageSequence.SINGLE: "single",
                 StageSequence.SEQ_I: "multi(i)",
                 StageSequence.SEQ_II: "multi(ii)",
                 StageSequence.SEQ_III: "multi(iii)"}
        seq = names.get(self.stages, "custom")
        opts = []
        if self.lazy_complement:
            opts.append("ncsb-lazy")
        else:
            opts.append("ncsb-original")
        if self.subsumption:
            opts.append("subsumption")
        if self.interpolant_modules:
            opts.append("interpolants")
        if self.via_semidet:
            opts.append("semidet")
        # Only non-default complementation knobs show up, so existing
        # config strings (and the store keys derived from them) persist.
        if self.complement_kind:
            opts.append(f"comp={self.complement_kind}")
        if not self.modular_complement:
            opts.append("nomodular")
        if not self.kernel_cache:
            opts.append("nocache")
        if not self.simulation_reduction:
            opts.append("nosim")
        if not self.firewall:
            opts.append("nofw")
        if self.fault_plan:
            opts.append("faults")
        return f"{seq}+{'+'.join(opts)}"
