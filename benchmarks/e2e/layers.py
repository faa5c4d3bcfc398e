"""Per-layer timing for the traced run, installed from outside the program.

:func:`install` replaces each layer's public entry point with a timing
wrapper, at the name its callers look up: ``find_accepting_lasso`` is
patched in ``repro.core.refinement``, which imported it by name, and
``screen`` in ``repro.core.api``.  ``repro.automata.difference`` is
reached through ``sys.modules`` because the package attribute of that
name is the function, not the module.  Nothing under ``src/`` changes.

A wrapper charges its call to a stack: a boundary's *self* time is its
duration minus the time spent in wrapped boundaries it called, and its
*inclusive* time counts only the outermost call when a boundary
re-enters itself.  Spans come from the program's own tracer
(:mod:`repro.obs.trace`), which ``worker.py`` installs when asked to.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``(boundary, module, class or None, attribute)``.  One boundary may
#: patch several names; they share one accumulator.
BOUNDARIES = (
    ("refinement", "repro.core.api", None, "prove_termination"),
    ("firewall.screen", "repro.core.api", None, "screen"),
    ("emptiness.lasso_search", "repro.core.refinement", None,
     "find_accepting_lasso"),
    ("ranking.prove_lasso", "repro.core.refinement", None, "prove_lasso"),
    ("stages.generalize", "repro.core.refinement", None, "generalize"),
    ("difference.difference", "repro.core.refinement", None, "difference"),
    ("difference.difference", "repro.automata.difference", None,
     "difference"),
    ("emptiness.remove_useless", "repro.automata.difference", None,
     "remove_useless"),
    ("simulation.reduce", "repro.automata.difference", None,
     "direct_simulation"),
    ("simulation.reduce", "repro.automata.difference", None, "quotient"),
    ("complement.successors", "repro.automata.complement.ncsb", "_NCSBBase",
     "successors"),
    ("complement.successors", "repro.automata.complement.rank_based",
     "RankComplement", "successors"),
    ("complement.successors", "repro.automata.complement.modular.product",
     "ModularComplement", "successors"),
    ("library.match", "repro.core.library", "ModuleLibrary", "match"),
    ("library.publish", "repro.core.library", "ModuleLibrary", "publish"),
    ("checkpoint.save", "repro.core.checkpoint", "Checkpointer", "save"),
    ("checkpoint.restore", "repro.core.checkpoint", "Checkpointer", "restore"),
    ("logic.fm.eliminate", "repro.logic.fourier_motzkin", None, "eliminate"),
    ("logic.fm.satisfiable", "repro.logic.fourier_motzkin", None,
     "satisfiable"),
    ("logic.fm.find_model", "repro.logic.fourier_motzkin", None, "find_model"),
    ("logic.entails_atom", "repro.logic.linconj", "LinConj", "entails_atom"),
    ("logic.tighten_integral", "repro.logic.atoms", "Atom", "tighten_integral"),
    ("logic.lp.solve", "repro.logic.lp", "LinearProgram", "_solve"),
)

#: Boundaries whose inclusive time is reported beside their self time.
INCLUSIVE = ("difference.difference", "ranking.prove_lasso",
             "stages.generalize", "firewall.screen", "library.match",
             "checkpoint.restore")


class Tracer:
    """Call-stack timer: per-boundary ``[calls, self_ns, incl_ns]``.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.totals: dict[str, list[int]] = {}
        # One entry per open call: the time spent in wrapped callees.
        # The root entry is never popped.
        self._stack: list[int] = [0]
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A timing wrapper around ``fn`` charged to boundary ``name``."""
        acc = self.totals.setdefault(name, [0, 0, 0])
        self._depth.setdefault(name, 0)
        stack, depth, clock = self._stack, self._depth, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_ns = stack.pop()
                depth[name] -= 1
                stack[-1] += elapsed
                acc[0] += 1
                acc[1] += elapsed - child_ns
                if depth[name] == 0:
                    acc[2] += elapsed

        return timed

    def patch(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        """Put every patched name back."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install() -> Tracer:
    """Patch every boundary in :data:`BOUNDARIES`; returns the tracer."""
    tracer = Tracer()
    for name, module, cls, attribute in BOUNDARIES:
        owner = importlib.import_module(module)  # the sys.modules entry
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.patch(owner, attribute, name)
    return tracer


def wrapper_ns_per_call(calls: int = 200_000) -> float:
    """Measured cost one wrapper adds to a call (ns)."""

    def plain(x):
        return x

    timed = Tracer().wrap("calibration", plain)
    best = {}
    for label, fn in (("plain", plain), ("timed", timed)):
        samples = []
        for _ in range(3):
            start = time.perf_counter_ns()
            for i in range(calls):
                fn(i)
            samples.append(time.perf_counter_ns() - start)
        best[label] = min(samples)
    return max(0.0, (best["timed"] - best["plain"]) / calls)
