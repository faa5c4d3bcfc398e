"""The multi-stage generalization constructions of Section 3.1.

Stage 0 builds the initial certified lasso module ``M_uvw`` (merging
equal-predicate states); stages 1-4 generalize it into, respectively, a
finite-trace module, the deterministic module of Definition 3.2, the
semideterministic module of Section 3.1.4, and the fully
nondeterministic module of Section 3.1.5.  ``generalize`` walks a
configured stage sequence and returns the first module whose language
contains the sampled word ``u v^w`` -- the guarantee the refinement loop
needs to make progress.

Stages 2 and 3 are one powerset exploration (``_explore``) over the
delta-wedge successors of ``M_uvw``; they differ only in the successor
rule it is given.  Called from ``generalize``, the exploration first
decides whether the stage accepts the sampled word, by running the rule
along ``u v^w`` only, and builds the module only when it does; the
check and the build share one builder, so a kept stage pays no Hoare
triple twice.  ``generalize`` tries the sampled lasso first and
the proofs of its loop rotations only when every strong stage (finite,
det, semi) of the sequence failed on it; a sequence without strong
stages proves no rotation.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Iterable, Sequence

from repro.automata.gba import State, ba
from repro.automata.words import UPWord, accepts
from repro.core.module import CertifiedModule
from repro.logic.predicates import PRED_FALSE, PRED_TRUE, Pred
from repro.obs import metrics as _metrics
from repro.program.statements import Statement, hoare_valid
from repro.ranking.certificate import RankCertificate, build_certificate
from repro.ranking.lasso import Lasso
from repro.ranking.synthesis import LassoProof, ProofKind


class Stage(enum.Enum):
    """Generalization stages in increasing complementation cost."""

    LASSO = "lasso"          # stage 0
    FINITE = "finite"        # stage 1
    DETERMINISTIC = "det"    # stage 2
    SEMIDET = "semi"         # stage 3
    NONDET = "nondet"        # stage 4


#: Stage label of interpolant-based modules.  Deliberately *not* a
#: :class:`Stage` member: interpolant modules sit outside the ladder of
#: re-generalizable stages (they need the interpolating solver, not just
#: a cheaper powerset), and the refinement loop's degradation logic
#: keys off this being off-ladder (see ``ladder_tail``).
INTERPOLANT_STAGE = "interp"

#: States each powerset stage (det/semi) may build before it gives up.
STAGE_STATE_BUDGET = 4096


# -- stage 0: the initial certified lasso module --------------------------------

def build_lasso_module(proof: LassoProof,
                       cert: RankCertificate | None = None) -> CertifiedModule:
    """``M_uvw``: a BA for exactly ``u v^w`` with equal-predicate states
    merged (Section 3.1.1)."""
    lasso = proof.lasso
    cert = cert or build_certificate(proof)
    stem, loop = lasso.stem, lasso.loop

    positions: list[tuple[str, int]] = [("s", i) for i in range(len(stem) + 1)]
    positions += [("l", i) for i in range(1, len(loop))]
    head: tuple[str, int] = ("s", len(stem))

    def pred_of(pos: tuple[str, int]) -> Pred:
        section, index = pos
        return cert.stem_preds[index] if section == "s" else cert.loop_preds[index]

    # Merge equal-predicate positions into classes (stable representatives).
    class_of: dict[tuple[str, int], int] = {}
    reps: list[Pred] = []
    for pos in positions:
        pred = pred_of(pos)
        for k, existing in enumerate(reps):
            if existing == pred:
                class_of[pos] = k
                break
        else:
            class_of[pos] = len(reps)
            reps.append(pred)

    def loop_pos(index: int) -> tuple[str, int]:
        return head if index % len(loop) == 0 else ("l", index)

    transitions: dict[tuple[State, Statement], set[State]] = {}
    for i, stmt in enumerate(stem):
        transitions.setdefault(
            (class_of[("s", i)], stmt), set()).add(class_of[("s", i + 1)])
    for i, stmt in enumerate(loop):
        transitions.setdefault(
            (class_of[loop_pos(i)], stmt), set()).add(class_of[loop_pos(i + 1)])

    alphabet = frozenset(stem + loop)
    automaton = ba(alphabet, transitions, [class_of[("s", 0)]],
                   [class_of[head]], states=set(class_of.values()))
    certificate = {k: reps[k] for k in set(class_of.values())}
    return CertifiedModule(automaton, cert.ranking, certificate,
                           stage=Stage.LASSO.value, source_word=lasso.word())


# -- stage 1: finite-trace module ---------------------------------------------------

def build_finite_module(proof: LassoProof,
                        program_alphabet: Iterable[Statement],
                        ) -> CertifiedModule | None:
    """``M_fin`` (Section 3.1.2): only for stem-infeasible lassos.

    Accepts ``u_1 .. u_p . Sigma^w`` where ``p`` is the first infeasible
    stem position -- any path with that prefix is infeasible, hence
    trivially terminating.
    """
    if proof.kind is not ProofKind.STEM_INFEASIBLE:
        return None
    assert proof.infeasible_at is not None and proof.ranking is not None
    p = proof.infeasible_at
    lasso = proof.lasso
    sigma = frozenset(program_alphabet) | frozenset(lasso.stem[:p])
    posts = lasso.stem_posts()

    transitions: dict[tuple[State, Statement], set[State]] = {}
    for i in range(p):
        transitions.setdefault((i, lasso.stem[i]), set()).add(i + 1)
    for stmt in sigma:
        transitions.setdefault((p, stmt), set()).add(p)
    automaton = ba(sigma, transitions, [0], [p], states=range(p + 1))
    certificate: dict[State, Pred] = {
        i: Pred.of_inf(posts[i]) for i in range(p)}
    certificate[p] = PRED_FALSE
    return CertifiedModule(automaton, proof.ranking.expr, certificate,
                           stage=Stage.FINITE.value, source_word=lasso.word())


# -- stages 2 and 3: powerset constructions over M_uvw --------------------------------

class _PowersetBuilder:
    """Shared delta-wedge machinery of Definitions 3.2 / Section 3.1.4."""

    def __init__(self, base: CertifiedModule):
        self._base = base
        self._accepting = base.automaton.accepting
        self._all_states = sorted(base.automaton.states, key=repr)
        self._cert = base.certificate
        self._ranking = base.ranking
        self._conj_cache: dict[frozenset, Pred] = {}
        self._wedge_cache: dict[tuple[frozenset, Statement], frozenset] = {}

    @property
    def alphabet(self) -> frozenset:
        return self._base.automaton.alphabet

    def conj(self, states: frozenset) -> Pred:
        """``AND of I(q) for q in states`` (top for the empty set)."""
        if states not in self._conj_cache:
            pred = PRED_TRUE
            for q in sorted(states, key=repr):
                pred = pred.and_(self._cert[q])
            self._conj_cache[states] = pred
        return self._conj_cache[states]

    def has_accepting(self, states: frozenset) -> bool:
        return bool(states & self._accepting)

    def is_accepting_state(self, states: frozenset) -> bool:
        """F_det membership: contains qf or has an unsat conjunction."""
        return self.has_accepting(states) or self.conj(states).is_unsat()

    def delta_wedge(self, states: frozenset, stmt: Statement) -> frozenset:
        """``delta_and(Q, stmt)`` of Definition 3.2: the maximal set of
        base states whose predicate follows by a valid Hoare triple."""
        key = (states, stmt)
        if key not in self._wedge_cache:
            pre = self.conj(states)
            update = self._ranking if self.has_accepting(states) else None
            out = frozenset(
                q for q in self._all_states
                if hoare_valid(pre, stmt, self._cert[q], oldrnk_update=update))
            self._wedge_cache[key] = out
        return self._wedge_cache[key]

    def det_successor(self, states: frozenset, stmt: Statement) -> frozenset:
        """``delta_det`` of Definition 3.2: when the accepting state is
        entered, drop non-accepting states whose predicate mentions
        ``oldrnk`` (they would mix stem and loop knowledge)."""
        wedge = self.delta_wedge(states, stmt)
        if not self.has_accepting(wedge):
            return wedge
        return frozenset(q for q in wedge
                         if q in self._accepting
                         or not self._cert[q].mentions_oldrnk())

    def nondet_successor(self, states: frozenset, stmt: Statement) -> frozenset:
        """The additional stage-3 successor: ``delta_and \\ {qf}``."""
        return self.delta_wedge(states, stmt) - self._accepting


_Rule = Callable[[_PowersetBuilder, State, Statement], Iterable[State]]
_View = Callable[[State], tuple[frozenset, bool]]
_FIRST_SET = frozenset({0})


class _OverBudget(Exception):
    """The on-word check found more states than a build may keep."""


class _StageOnWord:
    """A powerset stage as an implicit automaton, for :func:`accepts`.

    Its successors are the stage's rule, computed only for the states
    the word's run reaches; its accepting states are those of the built
    module.  Raises :class:`_OverBudget` once it has found more than
    ``STAGE_STATE_BUDGET + 1`` states: the build would return ``None``
    by then.
    """

    acceptance_count = 1

    def __init__(self, builder: _PowersetBuilder, start: State,
                 rule: _Rule, view: _View):
        self._builder = builder
        self._start = start
        self._rule = rule
        self._view = view
        self._seen: set[State] = {start}

    def initial_states(self) -> tuple[State]:
        return (self._start,)

    def successors(self, state: State, stmt: Statement) -> Iterable[State]:
        if stmt not in self._builder.alphabet:
            return ()
        targets = self._rule(self._builder, state, stmt)
        self._seen.update(targets)
        if len(self._seen) > STAGE_STATE_BUDGET + 1:
            raise _OverBudget
        return targets

    def accepting_sets_of(self, state: State) -> frozenset[int]:
        return _FIRST_SET if _accepting(self._builder, self._view,
                                        state) else frozenset()


def _accepting(builder: _PowersetBuilder, view: _View, state: State) -> bool:
    """A state accepts when it may and its set of base states is in F_det."""
    states, may_accept = view(state)
    return may_accept and builder.is_accepting_state(states)


def _explore(base: CertifiedModule, stage: Stage, start: State,
             successors: _Rule, view: _View,
             word: UPWord | None = None) -> CertifiedModule | None:
    """The powerset exploration of stages 2 and 3; ``successors`` is the
    stage's rule.

    Breadth-first from ``start``, statements in ``str`` order.
    ``view(state)`` is the set of base states a state stands for and
    whether it may accept: it accepts when it may and that set is in
    F_det, and its certificate is the set's conjunction.  Returns
    ``None`` once more than :data:`STAGE_STATE_BUDGET` states beyond
    ``start`` are found.  With a ``word``, returns ``None`` without
    building when the module would not accept it or would blow the
    budget along its run (``stages.rejected_on_word``).
    """
    builder = _PowersetBuilder(base)
    if word is not None:
        try:
            kept = accepts(_StageOnWord(builder, start, successors, view), word)
        except _OverBudget:
            kept = False
        if not kept:
            _metrics.inc("stages.rejected_on_word")
            return None
    alphabet = sorted(builder.alphabet, key=str)
    transitions: dict[tuple[State, Statement], set[State]] = {}
    seen: set[State] = {start}
    queue: deque[State] = deque([start])
    while queue:
        current = queue.popleft()
        for stmt in alphabet:
            targets = successors(builder, current, stmt)
            transitions.setdefault((current, stmt), set()).update(targets)
            for target in targets:
                if target not in seen:
                    if len(seen) > STAGE_STATE_BUDGET:
                        return None
                    seen.add(target)
                    queue.append(target)
    accepting = {q for q in seen if _accepting(builder, view, q)}
    automaton = ba(builder.alphabet, transitions, [start], accepting,
                   states=seen)
    certificate = {q: builder.conj(view(q)[0]) for q in seen}
    return CertifiedModule(automaton, base.ranking, certificate,
                           stage=stage.value, source_word=base.source_word)


def _det_successors(builder: _PowersetBuilder, states: frozenset,
                    stmt: Statement) -> tuple[frozenset]:
    return (builder.det_successor(states, stmt),)


def _semi_successors(builder: _PowersetBuilder, state: tuple[frozenset, str],
                     stmt: Statement) -> set[tuple[frozenset, str]]:
    """A stem state (phase ``"n"``) whose wedge reaches the accepting
    state may enter the deterministic part (``"d"``) or stay."""
    states, phase = state
    det_target = builder.det_successor(states, stmt)
    if phase == "d":
        return {(det_target, "d")}
    if builder.has_accepting(builder.delta_wedge(states, stmt)):
        return {(det_target, "d"),
                (builder.nondet_successor(states, stmt), "n")}
    return {(det_target, "n")}


def _deterministic(base: CertifiedModule,
                   word: UPWord | None) -> CertifiedModule | None:
    start = frozenset(base.automaton.initial_states())
    return _explore(base, Stage.DETERMINISTIC, start, _det_successors,
                    lambda states: (states, True), word)


def _semideterministic(base: CertifiedModule,
                       word: UPWord | None) -> CertifiedModule | None:
    start = (frozenset(base.automaton.initial_states()), "n")
    return _explore(base, Stage.SEMIDET, start, _semi_successors,
                    lambda state: (state[0], state[1] == "d"), word)


def build_deterministic_module(base: CertifiedModule,
                               ) -> CertifiedModule | None:
    """``M_det`` (Definition 3.2): the deterministic powerset module."""
    return _deterministic(base, None)


def build_semideterministic_module(base: CertifiedModule,
                                   ) -> CertifiedModule | None:
    """``M_semi`` (Section 3.1.4): ``M_det`` enriched with nondeterministic
    stay-in-the-stem successors; the result is a normalized SDBA."""
    return _semideterministic(base, None)


# -- stage 4: nondeterministic module --------------------------------------------------

def build_nondeterministic_module(base: CertifiedModule) -> CertifiedModule:
    """``M_nondet`` (Section 3.1.5): every Hoare-valid transition between
    pairs of ``M_uvw`` states is added.  Always accepts the source word."""
    auto = base.automaton
    accepting = auto.accepting
    cert = base.certificate
    transitions: dict[tuple[State, Statement], set[State]] = {
        key: set(targets) for key, targets in auto.transitions.items()}
    for q in auto.states:
        update = base.ranking if q in accepting else None
        for stmt in auto.alphabet:
            for target in auto.states:
                if target in transitions.get((q, stmt), set()):
                    continue
                if hoare_valid(cert[q], stmt, cert[target], oldrnk_update=update):
                    transitions.setdefault((q, stmt), set()).add(target)
    automaton = ba(auto.alphabet, transitions, auto.initial_states(),
                   accepting, states=auto.states)
    return CertifiedModule(automaton, base.ranking, dict(cert),
                           stage=Stage.NONDET.value, source_word=base.source_word)


# -- stage selection ---------------------------------------------------------------------

#: Loops longer than this are not rotation-searched (cost control).
_MAX_ROTATED_LOOP = 12


def _rotation_proofs(proof: LassoProof) -> Iterable[LassoProof]:
    """The proof itself, then proofs of the rotated alignments.

    ``u (v1 .. vm)^w  =  (u v1 .. vk) (v_{k+1} .. vm v1 .. vk)^w``: every
    rotation denotes the same omega-word, but the powerset stages are
    sensitive to where the accepting state falls in the loop, so a
    different alignment can succeed where the sampled one fails.
    Rotations that are not provably terminating are skipped.
    """
    from repro.ranking.synthesis import prove_lasso

    yield proof
    lasso = proof.lasso
    loop = lasso.loop
    if len(loop) > _MAX_ROTATED_LOOP:
        return
    for k in range(1, len(loop)):
        rotated = Lasso(lasso.stem + loop[:k], loop[k:] + loop[:k])
        candidate = prove_lasso(rotated, check_nontermination=False)
        if candidate.is_terminating:
            yield candidate


def _build_stage(stage: Stage, proof: LassoProof,
                 lasso_module: CertifiedModule,
                 program_alphabet: Iterable[Statement],
                 word: UPWord) -> CertifiedModule | None:
    """The stage's module; ``None`` when it does not apply, or, for the
    powerset stages, when it is decided not to accept ``word``."""
    if stage is Stage.LASSO:
        return lasso_module
    if stage is Stage.FINITE:
        return build_finite_module(proof, program_alphabet)
    if stage is Stage.DETERMINISTIC:
        return _deterministic(lasso_module, word)
    if stage is Stage.SEMIDET:
        return _semideterministic(lasso_module, word)
    if stage is Stage.NONDET:
        return build_nondeterministic_module(lasso_module)
    raise ValueError(f"unknown stage {stage!r}")


def generalize(proof: LassoProof,
               sequence: Sequence[Stage],
               program_alphabet: Iterable[Statement],
               *,
               interpolants: bool = False) -> CertifiedModule:
    """Run the multi-stage generalization (Section 3.1).

    Walks the sampled alignment through the strong stages of
    ``sequence`` first, then the loop rotations (see
    :func:`_rotation_proofs`; a sequence without strong stages proves no
    rotation), then the weak stages; returns the first module whose
    language contains the sampled word.  A powerset stage (det, semi and
    the interpolant semi) decides that membership on the word before it
    builds anything, and is built only when the word is accepted; the
    built module's ``language_contains`` is still asked.  Falls back to the
    lasso module itself (which accepts exactly that word) if every
    stage fails -- the refinement loop always makes progress.

    With ``interpolants`` enabled, a stem-infeasible lasso first tries a
    semideterministic module over *interpolant* predicates -- usually a
    far bigger language than stage 1's ``prefix . Sigma^w``.
    """
    word = proof.lasso.word()
    if interpolants and proof.kind is ProofKind.STEM_INFEASIBLE:
        cert = build_certificate(proof, interpolate=True)
        base = build_lasso_module(proof, cert)
        positions = len(proof.lasso.stem) + len(proof.lasso.loop)
        # Generalization beyond the stage-1 prefix module comes from
        # equal-interpolant positions merging into loops; an unmerged
        # chain only adds powerset cost, so fall through in that case.
        if len(base.automaton.states) < positions:
            module = _semideterministic(base, word)
            if module is not None and module.language_contains(word):
                module.stage = INTERPOLANT_STAGE
                return module
    strong = [s for s in sequence if s not in (Stage.LASSO, Stage.NONDET)]
    weak = [s for s in sequence if s in (Stage.LASSO, Stage.NONDET)]

    # The sampled alignment is tried in full first; rotations only rescue
    # when every strong stage of the sampled alignment failed.
    base_module: CertifiedModule | None = None
    for candidate in (_rotation_proofs(proof) if strong else [proof]):
        lasso_module = build_lasso_module(candidate,
                                          build_certificate(candidate))
        if base_module is None:
            base_module = lasso_module
        for stage in strong:
            module = _build_stage(stage, candidate, lasso_module,
                                  program_alphabet, word)
            if module is not None and module.language_contains(word):
                return module
    assert base_module is not None
    for stage in weak:
        module = _build_stage(stage, proof, base_module, program_alphabet,
                              word)
        if module is not None and module.language_contains(word):
            return module
    return base_module
