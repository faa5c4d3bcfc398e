"""The module codec: portable-dict serialization of certified modules.

The certified-module store (:mod:`repro.core.library`) wraps this
codec in its one record format, which both the cross-program module
library and per-job checkpoints persist.  Everything read back is
*untrusted input*: the codec validates shapes strictly and raises
:class:`CodecError` on anything that is not exactly the expected
layout ("almost the right shape" must reject, not half-load), while
semantic re-validation against Definition 3.1
(:func:`repro.core.module.recheck`) stays the caller's job.

Layout: fractions become ``[numerator, denominator]`` pairs, terms /
atoms / conjunctions / predicates nest as plain dicts and lists,
automaton states are renumbered to dense ints, and symbols -- program
statements, which are not JSON values -- are referenced by index into
a sorted ``str(symbol)`` table carried next to the payload (see
:func:`symbol_table`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.automata.gba import GBA
from repro.automata.words import UPWord
from repro.core.module import CertifiedModule
from repro.logic.atoms import Atom, Rel
from repro.logic.linconj import LinConj
from repro.logic.predicates import Pred
from repro.logic.terms import LinTerm


class CodecError(ValueError):
    """Serialized module data failed decoding (reason in ``str``)."""


# -- portable-dict serialization of the logic substrate ------------------------

def frac_to_dict(value: Fraction) -> list:
    return [value.numerator, value.denominator]


def frac_from_dict(data) -> Fraction:
    if (not isinstance(data, (list, tuple)) or len(data) != 2
            or not all(isinstance(x, int) for x in data)):
        raise CodecError(f"malformed fraction: {data!r}")
    if data[1] == 0:
        raise CodecError("fraction with zero denominator")
    return Fraction(data[0], data[1])


def term_to_dict(term: LinTerm) -> dict:
    return {"coeffs": {name: frac_to_dict(c)
                       for name, c in term.coeffs.items()},
            "constant": frac_to_dict(term.constant)}


def term_from_dict(data) -> LinTerm:
    if not isinstance(data, dict):
        raise CodecError(f"malformed term: {data!r}")
    coeffs = data.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise CodecError(f"malformed term coefficients: {coeffs!r}")
    return LinTerm({str(name): frac_from_dict(c)
                    for name, c in coeffs.items()},
                   frac_from_dict(data.get("constant", [0, 1])))


def atom_to_dict(atom: Atom) -> dict:
    return {"rel": atom.rel.value, "term": term_to_dict(atom.term)}


def atom_from_dict(data) -> Atom:
    if not isinstance(data, dict):
        raise CodecError(f"malformed atom: {data!r}")
    try:
        rel = Rel(data.get("rel"))
    except ValueError as exc:
        raise CodecError(f"unknown atom relation: {data.get('rel')!r}") from exc
    return Atom(term_from_dict(data.get("term")), rel)


def conj_to_dict(conj: LinConj) -> list:
    return [atom_to_dict(a) for a in conj.atoms]


def conj_from_dict(data) -> LinConj:
    if not isinstance(data, list):
        raise CodecError(f"malformed conjunction: {data!r}")
    return LinConj(atom_from_dict(a) for a in data)


def pred_to_dict(pred: Pred) -> dict:
    return {"inf": [conj_to_dict(d) for d in pred.inf_disjuncts],
            "fin": [conj_to_dict(d) for d in pred.fin_disjuncts]}


def pred_from_dict(data) -> Pred:
    if not isinstance(data, dict):
        raise CodecError(f"malformed predicate: {data!r}")
    try:
        return Pred(tuple(conj_from_dict(d) for d in data.get("inf", [])),
                    tuple(conj_from_dict(d) for d in data.get("fin", [])))
    except ValueError as exc:  # e.g. oldrnk constrained in the oo case
        raise CodecError(f"invalid predicate: {exc}") from exc


# -- symbols and automata -------------------------------------------------------
#
# Module automata are labelled by program statements (the program GBA's
# alphabet), which are not JSON values.  A payload therefore carries a
# *symbol table* -- str(symbol) over the sorted alphabet -- and every
# transition/word references symbols by table index.  On decode the
# table is re-bound to the reading program's own statement objects; a
# program whose statements do not stringify uniquely (never the case
# for the mini-language) cannot be serialized at all.

def symbol_table(alphabet: Iterable) -> tuple[list, dict] | None:
    """``(ordered symbols, str(symbol) -> index)``; None if ambiguous."""
    ordered = sorted(alphabet, key=str)
    index = {str(sym): i for i, sym in enumerate(ordered)}
    if len(index) != len(ordered):
        return None
    return ordered, index


def gba_to_dict(automaton: GBA, sym_index: dict) -> dict:
    ordered = sorted(automaton.states, key=lambda s: (str(type(s)), str(s)))
    state_id = {state: i for i, state in enumerate(ordered)}
    transitions = sorted(
        [state_id[src], sym_index[str(sym)],
         sorted(state_id[t] for t in targets)]
        for (src, sym), targets in automaton.transitions.items())
    return {"states": len(ordered),
            "initial": sorted(state_id[q] for q in automaton.initial_states()),
            "acc": [sorted(state_id[q] for q in f)
                    for f in automaton.acc_sets],
            "transitions": transitions}


def gba_from_dict(data, symbols: list, alphabet: Iterable | None = None) -> GBA:
    """Rebuild a GBA against ``symbols`` (index ``i`` -> symbol).

    ``alphabet`` optionally widens the reconstructed automaton's
    alphabet beyond the symbols it actually uses -- the module library
    decodes entries serialized over their *used*-symbol table into a
    program whose alphabet is a superset, and downstream constructions
    (complement dispatch, products) expect module automata over the
    full program alphabet.
    """
    if not isinstance(data, dict):
        raise CodecError(f"malformed automaton: {data!r}")
    n = data.get("states")
    if not isinstance(n, int) or n < 0:
        raise CodecError(f"malformed state count: {n!r}")

    def state(i) -> int:
        if not isinstance(i, int) or not 0 <= i < n:
            raise CodecError(f"state id out of range: {i!r}")
        return i

    transitions: dict[tuple, list] = {}
    for entry in data.get("transitions", ()):
        if not isinstance(entry, list) or len(entry) != 3:
            raise CodecError(f"malformed transition: {entry!r}")
        src, sym_id, targets = entry
        if not isinstance(sym_id, int) or not 0 <= sym_id < len(symbols):
            raise CodecError(f"symbol id out of range: {sym_id!r}")
        transitions[(state(src), symbols[sym_id])] = \
            [state(t) for t in targets]
    return GBA(alphabet=symbols if alphabet is None else alphabet,
               transitions=transitions,
               initial=[state(q) for q in data.get("initial", ())],
               acc_sets=[[state(q) for q in f]
                         for f in data.get("acc", ())],
               states=range(n))


def word_to_dict(word: UPWord, sym_index: dict) -> dict:
    return {"prefix": [sym_index[str(s)] for s in word.prefix],
            "period": [sym_index[str(s)] for s in word.period]}


def word_from_dict(data, symbols: list) -> UPWord:
    if not isinstance(data, dict):
        raise CodecError(f"malformed word: {data!r}")

    def sym(i):
        if not isinstance(i, int) or not 0 <= i < len(symbols):
            raise CodecError(f"word symbol id out of range: {i!r}")
        return symbols[i]

    try:
        return UPWord(tuple(sym(i) for i in data.get("prefix", ())),
                      tuple(sym(i) for i in data.get("period", ())))
    except ValueError as exc:  # empty period
        raise CodecError(f"invalid word: {exc}") from exc


def module_to_dict(module: CertifiedModule, sym_index: dict) -> dict:
    ordered = sorted(module.automaton.states,
                     key=lambda s: (str(type(s)), str(s)))
    state_id = {state: i for i, state in enumerate(ordered)}
    return {"stage": module.stage,
            "automaton": gba_to_dict(module.automaton, sym_index),
            "ranking": term_to_dict(module.ranking),
            "certificate": {str(state_id[q]): pred_to_dict(pred)
                            for q, pred in module.certificate.items()
                            if q in state_id},
            "source_word": (word_to_dict(module.source_word, sym_index)
                            if module.source_word is not None else None)}


def module_from_dict(data, symbols: list,
                     alphabet: Iterable | None = None) -> CertifiedModule:
    if not isinstance(data, dict):
        raise CodecError(f"malformed module: {data!r}")
    automaton = gba_from_dict(data.get("automaton"), symbols,
                              alphabet=alphabet)
    certificate_data = data.get("certificate")
    if not isinstance(certificate_data, dict):
        raise CodecError("module without a certificate")
    certificate = {}
    for key, pred in certificate_data.items():
        try:
            state = int(key)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"malformed certificate key: {key!r}") from exc
        certificate[state] = pred_from_dict(pred)
    word = data.get("source_word")
    return CertifiedModule(
        automaton=automaton,
        ranking=term_from_dict(data.get("ranking")),
        certificate=certificate,
        stage=str(data.get("stage", "lasso")),
        source_word=word_from_dict(word, symbols) if word is not None else None)


def module_symbols(module: CertifiedModule) -> set:
    """The symbols a module actually touches: transition labels plus
    its source word.  Serializing over this (usually program-wide)
    set rather than a fixed external alphabet is what makes an entry
    reusable by any program whose alphabet is a superset."""
    symbols = {sym for (_src, sym) in module.automaton.transitions}
    if module.source_word is not None:
        symbols.update(module.source_word.prefix)
        symbols.update(module.source_word.period)
    return symbols
