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
from repro.faults import FaultPlan


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
            "interpolant_modules": self.interpolant_modules,
            "max_refinements": self.max_refinements,
            "difference_state_limit": self.difference_state_limit,
            "timeout": self.timeout,
            "fault_plan": self.fault_plan,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing keys take the field defaults (so hand-written manifest
        entries can name only the knobs they change).  Unknown keys,
        unknown stage names, values of the wrong JSON type and a
        ``fault_plan`` that :meth:`FaultPlan.from_json` rejects raise
        ``ValueError`` naming the key, so a malformed manifest entry is
        rejected before any job runs.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        kwargs = dict(data)
        kwargs.pop("name", None)  # manifests may label their configs
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        stages = kwargs.pop("stages", None)
        for key, value in kwargs.items():
            _check_type(key, value, cls.__dataclass_fields__[key].type)
        if stages is not None:
            kwargs["stages"] = _parse_stages(stages)
        if kwargs.get("fault_plan"):
            try:
                FaultPlan.from_json(kwargs["fault_plan"])
            except ValueError as err:
                raise ValueError(f"config key 'fault_plan': {err}") from None
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
        if self.fault_plan:
            opts.append("faults")
        return f"{seq}+{'+'.join(opts)}"


#: The JSON values each scalar field annotation admits.
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float),
               "str": (str,)}


def _check_type(key: str, value, annotation: str) -> None:
    base, _, rest = annotation.partition(" | ")
    if value is None and rest == "None":
        return
    # bool is an int subclass: only bool fields take true/false.
    if (isinstance(value, bool) is not (base == "bool")
            or not isinstance(value, _JSON_TYPES[base])):
        raise ValueError(f"config key {key!r} must be {annotation}, "
                         f"got {value!r}")


def _parse_stages(stages) -> tuple[Stage, ...]:
    """A sequence name of :class:`StageSequence` or a list of stage values."""
    if isinstance(stages, str) and stages in StageSequence.BY_NAME:
        return StageSequence.BY_NAME[stages]
    if isinstance(stages, (list, tuple)):
        try:
            return tuple(Stage(s) for s in stages)
        except ValueError:
            pass
    raise ValueError(f"config key 'stages' must be one of "
                     f"{sorted(StageSequence.BY_NAME)} or a list of "
                     f"{[s.value for s in Stage]}, got {stages!r}")
