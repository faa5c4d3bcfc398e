"""Algorithm 1 over dense ids against the dict-keyed reference.

``tests/emptiness_reference.py`` keeps Algorithm 1 as it reads in the
paper, over the input's own states, and a pairwise ``ceil(emp)``
antichain that remembers no answer.  The production loop runs over ids
with per-id arrays, and its antichain memoizes answers; on every input
and oracle here both must build the same automaton and the same
:class:`RemovalStats` counts -- also when a ``state_limit`` stops them
half way.  The scan counts ``prefilter_skips`` and
``sim_subsumption_hits`` are left out: ``difference`` fills them from
the oracle's own scans, which the memo cuts.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict

import pytest

from repro.automata.complement.ncsb import (NCSBLazy, NCSBOriginal,
                                            prepare_sdba, subsumes,
                                            subsumes_b)
from repro.automata.difference import SubsumptionOracle
from repro.automata.emptiness import (EmptyOracle, ExplorationLimit,
                                      remove_useless)
from repro.automata.gba import GBA, ba
from repro.automata.ops import NumberedProduct, ProductGBA
from repro.automata.simulation import direct_simulation
from repro.benchgen.sdba_corpus import random_sdba, sdba_corpus
from tests import emptiness_reference as ref

SIGMA = ("a", "b")

#: Filled by ``difference`` from the oracle's scans, not by Algorithm 1.
SCAN_COUNTS = {"prefilter_skips", "sim_subsumption_hits"}


def _seeded_gba(seed: int, k: int) -> GBA:
    rng = random.Random(seed)
    states = list(range(rng.randint(1, 8)))
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if rng.random() < 0.3}
            if targets:
                transitions[(q, s)] = targets
    acc_sets = [[q for q in states if rng.random() < 0.4] for _ in range(k)]
    initial = rng.sample(states, rng.randint(1, min(2, len(states))))
    return GBA(set(SIGMA), transitions, initial, acc_sets, states=states)


class _WearyOracle(EmptyOracle):
    """An unsound oracle: it claims a state "empty" from its third query
    on.  Both loops query alike about states not classified useless, so
    it answers them alike -- and an edge into a state already found
    useful must not query it at all, which this pins."""

    def __init__(self):
        super().__init__()
        self.asked: Counter = Counter()

    def contains(self, state) -> bool:
        self.asked[state] += 1
        return state in self._emp or self.asked[state] > 2


def _counts(stats) -> dict:
    return {name: value for name, value in asdict(stats).items()
            if name not in SCAN_COUNTS}


def _assert_agree(build, fast_oracle=None, slow_oracle=None):
    """Run both loops, each on a fresh input from ``build`` with the
    oracle its factory makes for that input (none without one), in
    full and under half the explored-state budget."""
    def run(loop, make, **kwargs):
        auto = build()
        oracle = make(auto) if make is not None else None
        return oracle, loop(auto, oracle=oracle, **kwargs)

    fast_emp, (fast, fast_stats) = run(remove_useless, fast_oracle)
    slow_emp, (slow, slow_stats) = run(ref.remove_useless, slow_oracle)
    assert fast.alphabet == slow.alphabet
    assert fast.states == slow.states
    assert dict(fast.transitions) == dict(slow.transitions)
    assert fast.initial_states() == slow.initial_states()
    assert fast.acc_sets == slow.acc_sets
    assert _counts(fast_stats) == _counts(slow_stats)
    if fast_emp is not None:
        assert len(fast_emp) == len(slow_emp)
    limit = fast_stats.explored_states // 2
    if limit:
        with pytest.raises(ExplorationLimit) as fast_exc:
            run(remove_useless, fast_oracle, state_limit=limit)
        with pytest.raises(ExplorationLimit) as slow_exc:
            run(ref.remove_useless, slow_oracle, state_limit=limit)
        assert (_counts(fast_exc.value.partial_stats)
                == _counts(slow_exc.value.partial_stats))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_random_gbas_agree_with_the_reference(k):
    for seed in range(60):
        auto = _seeded_gba(seed * 11 + k, k)
        rng = random.Random(seed)
        marked = [q for q in auto.states if rng.random() < 0.2]

        def prepopulated(_auto):
            oracle = EmptyOracle()
            for q in marked:
                oracle.add(q)
            return oracle

        _assert_agree(lambda: auto, None, lambda _auto: EmptyOracle())
        _assert_agree(lambda: auto, prepopulated, prepopulated)
        _assert_agree(lambda: auto, lambda _auto: _WearyOracle(),
                      lambda _auto: _WearyOracle())


def _minuend(seed: int, alphabet) -> GBA:
    """A random all-accepting BA over the given alphabet."""
    rng = random.Random(seed)
    states = list(range(4))
    transitions = {}
    for q in states:
        for s in sorted(alphabet):
            targets = {t for t in states if rng.random() < 0.5}
            if targets:
                transitions[(q, s)] = targets
    return ba(alphabet, transitions, [0], states, states=states)


def _antichains(relation, simulation, comp):
    """Factories of a production antichain and of its reference, on the
    same order; the reference reads a numbered product's ids through
    its pairs."""
    def fast(_auto):
        return SubsumptionOracle(relation, simulation=simulation,
                                 complement=comp)

    def slow(auto):
        return ref.ReferenceAntichain(
            relation, simulation=simulation, complement=comp,
            names=auto.pairs if isinstance(auto, NumberedProduct) else None)
    return fast, slow


CONSTRUCTIONS = [NCSBOriginal, NCSBLazy]


@pytest.mark.parametrize("construction", CONSTRUCTIONS,
                         ids=lambda c: c.KIND)
@pytest.mark.parametrize("seed", range(6))
def test_difference_products_agree_with_the_reference(seed, construction):
    subtrahend = random_sdba(seed, n_nondet=3, n_det=4)
    minuend = _minuend(seed + 1000, subtrahend.alphabet)
    comp = construction(prepare_sdba(subtrahend, minuend.alphabet))
    simulation = direct_simulation(comp.sdba, parts=comp.parts)
    for product in (ProductGBA, NumberedProduct):
        def build():
            return product(minuend, comp)

        _assert_agree(build, None, lambda _auto: EmptyOracle())
        for coarse in (None, simulation):
            for relation in (subsumes, subsumes_b):
                _assert_agree(build, *_antichains(relation, coarse, comp))


@pytest.mark.parametrize("construction", CONSTRUCTIONS,
                         ids=lambda c: c.KIND)
@pytest.mark.parametrize("seed", range(4))
def test_bare_complements_agree_with_the_reference(seed, construction):
    comp = construction(prepare_sdba(random_sdba(seed)))
    simulation = direct_simulation(comp.sdba, parts=comp.parts)

    def build():
        return construction(comp.sdba)

    _assert_agree(build, None, lambda _auto: EmptyOracle())
    for coarse in (None, simulation):
        for relation in (subsumes, subsumes_b):
            _assert_agree(build, *_antichains(relation, coarse, comp))


# -- Figure 4 counts ------------------------------------------------------------


#: Explored (states, edges) totals of ``bench_fig4_states.py``'s three
#: settings over the first six random SDBAs of the Figure 4 corpus, as
#: the dict-keyed loop counted them.
FIG4_TOTALS = {"original": (10641, 37298), "lazy": (8372, 26545),
               "lazy+subsumption": (7517, 24678)}


def test_figure4_explored_totals_are_pinned():
    """Bare complements go through the numbering adapter, and under
    subsumption the antichain holds bare macro-states (one group)."""
    corpus = sdba_corpus(harvested=False, n_random=6)
    settings = {
        "original": lambda sdba: remove_useless(NCSBOriginal(sdba)),
        "lazy": lambda sdba: remove_useless(NCSBLazy(sdba)),
        "lazy+subsumption": lambda sdba: remove_useless(
            NCSBLazy(sdba), oracle=SubsumptionOracle(subsumes_b)),
    }
    totals = {}
    for name, run in settings.items():
        stats = [run(sdba)[1] for sdba in corpus]
        totals[name] = (sum(s.explored_states for s in stats),
                        sum(s.explored_edges for s in stats))
    assert totals == FIG4_TOTALS
