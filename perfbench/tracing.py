"""Span tracing from outside the library.

Each traced layer function is replaced, in every ``stieltjesmp`` module that
binds it, by a wrapper that records a span: name, op id, parent span and
start/end times.  Callers look the function up by name in their module's
namespace at call time, so the replacement catches the pipeline's calls as
well as the benchmark's own, and behaviour is unchanged.  Spans stay in
memory and are summarized (and written out) when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: span name -> (defining module, function names recorded under that span).
#: ``pipeline.solve`` groups the three solve entry points.
SPANS = {
    "hankel.load_moments": ("hankel", ("load_moments",)),
    "hankel.check_solvable": ("hankel", ("check_solvable",)),
    "hankel.scalarize": ("hankel", ("scalarize",)),
    "gns.build_space": ("gns", ("build_space",)),
    "shiftop.build_shift": ("shiftop", ("build_shift",)),
    "extensions.cayley": ("extensions", ("cayley",)),
    "extensions.extremal_extensions": ("extensions", ("extremal_extensions",)),
    "extensions.determinacy": ("extensions", ("determinacy",)),
    "extensions.extend_ext": ("extensions", ("extend_ext",)),
    "extensions.spectral_solution": ("extensions", ("spectral_solution",)),
    "krein.build_gamma_weyl": ("krein", ("build_gamma_weyl",)),
    "krein.make_tau": ("krein", ("make_tau",)),
    "krein.solution_transform": ("krein", ("solution_transform",)),
    "krein.constant_tau_of_extension": ("krein", ("constant_tau_of_extension",)),
    "krein.extension_of_constant_tau": ("krein", ("extension_of_constant_tau",)),
    "solutions.perron_invert": ("solutions", ("perron_invert",)),
    "solutions.verify_moments": ("solutions", ("verify_moments",)),
    "io.dumps_canonical": ("io", ("dumps_canonical",)),
    "pipeline.analyze": ("pipeline", ("analyze",)),
    "pipeline.solve": (
        "pipeline",
        ("unique_solution", "solve_tau_grid", "solve_with_tau"),
    ),
}

UNATTRIBUTED = "unattributed"


class Tracer:
    """Installs span wrappers and keeps the recorded spans in memory.

    A span is ``(name, op_id, parent, t0, t1)``; ``parent`` is the index of
    the enclosing span in :attr:`spans`, or -1 for a span directly under the
    op.  Ops are recorded separately as ``(op_id, t0, t1)``.
    """

    def __init__(self):
        self.spans = []
        self.ops = []
        self.absent = []
        self._stack = []
        self._op_id = None
        self._patches = None  # [(module, attribute, original, wrapper)]

    # -- installation -----------------------------------------------------

    def install(self):
        """Put the span wrappers in place.

        The first call finds every module binding each function named in
        :data:`SPANS`.  A function the library no longer defines is listed in
        :attr:`absent` instead of failing the run.
        """
        if self._patches is None:
            self._patches = self._find_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in reversed(self._patches or []):
            setattr(mod, attr, original)

    def _find_patches(self):
        pkg = importlib.import_module("stieltjesmp")
        modules = [pkg] + [
            mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith("stieltjesmp.") and mod is not None
        ]
        patches = []
        for span, (modname, funcs) in SPANS.items():
            home = sys.modules.get(f"stieltjesmp.{modname}")
            for fname in funcs:
                original = getattr(home, fname, None) if home else None
                if not callable(original):
                    self.absent.append(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(original, span)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, self._op_id, parent, t0, t1)

        return traced

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        self._op_id = op_id
        self._stack.clear()

    def end_op(self, op_id, t0, t1):
        self.ops.append((op_id, t0, t1))
        self._op_id = None

    # -- summaries ------------------------------------------------------------

    def summary(self):
        """Per-span call counts and self seconds, summed over all ops, plus
        the op time no top-level span covers (``unattributed``).

        Self time is a span's duration minus the time its children cover;
        children of one span run one after another inside it, so their
        durations add up to that part.
        """
        covered = defaultdict(float)
        top = defaultdict(float)
        for name, op_id, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
            else:
                top[op_id] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, (name, _, _, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered[sid]
        op_total = sum(t1 - t0 for _, t0, t1 in self.ops)
        self_s[UNATTRIBUTED] = sum(max(0.0, (t1 - t0) - top[op]) for op, t0, t1 in self.ops)
        return dict(calls), dict(self_s), op_total

    def children_of(self, parent_name, child_name):
        """Number of ``child_name`` spans directly under ``parent_name`` spans."""
        names = [s[0] for s in self.spans]
        return sum(
            1
            for name, _, parent, _, _ in self.spans
            if name == child_name and parent >= 0 and names[parent] == parent_name
        )

    def to_records(self):
        """Spans as plain lists for writing out: id, name, op, parent, t0, t1."""
        return [
            [sid, name, op_id, parent, t0, t1]
            for sid, (name, op_id, parent, t0, t1) in enumerate(self.spans)
        ]
