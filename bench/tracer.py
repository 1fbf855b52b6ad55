"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces selected public functions of the ``gluesurf`` modules
with timing wrappers, at every module namespace that bound the function,
and puts the originals back on exit.  Nothing inside the program changes:
spans are recorded from the benchmark's side of each call.

A span is kept in memory as ``Span`` and written out only when the run ends.
Self time is a span's duration minus the time its direct children cover.
A child covers the whole of its wrapper, from the wrapper's entry to its
return, so the tracer's bookkeeping around a child is taken out of the
parent.  What stays in the parent is the cost of the call into the wrapper,
which the untraced call into the original function pays as well.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, function) pairs the traced run wraps; names match the per-layer
# metrics ``<module>.<function>.<what>``.
LAYERS = (
    ("gluing", "gluing_from_dict"),
    ("gluing", "validate_gluing"),
    ("gluing", "cusps"),
    ("gluing", "quotient_curve"),
    ("intlinalg", "snf"),
    ("intlinalg", "cokernel_invariants"),
    ("topology", "homotopy_graph"),
    ("topology", "mv_matrices"),
    ("topology", "pi1_presentation"),
    ("topology", "homology_of_X"),
    ("grouptheory", "tietze_simplify"),
    ("grouptheory", "hom_count"),
    ("grouptheory", "abelianization"),
    ("grouptheory", "fingerprint"),
    ("invariants", "irregularity"),
    ("invariants", "compute_report"),
    ("fourlines", "d4_action"),
    ("fourlines", "enumerate_orbits"),
)


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    op: int
    parent: int | None
    # when the wrapper was entered, before the tracer's bookkeeping
    entered: float
    start: float
    end: float = 0.0
    # when the wrapper handed control back, after the tracer's bookkeeping
    returned: float = 0.0
    sizes: dict | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its direct children cover."""
    out = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.returned - s.entered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per layer name: call count, summed self time and the spans' size records."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "sizes": []})
        entry["calls"] += 1
        entry["self_s"] += selfs[s.sid]
        if s.sizes:
            entry["sizes"].append(s.sizes)
    return out


def _max_bits(matrix) -> int:
    return max((abs(x).bit_length() for x in matrix.entries), default=0)


def _words_length(presentation) -> int:
    return sum(len(w) for w in presentation.relators)


def _sizes(name: str, args, result) -> dict:
    """Work counts taken from a call's arguments and result."""
    if name == "intlinalg.snf":
        a = args[0]
        return {"cells": a.rows * a.cols,
                "entry_bits": max(_max_bits(result.u), _max_bits(result.s), _max_bits(result.v))}
    if name == "grouptheory.tietze_simplify":
        return {"generators_in": len(args[0].generators),
                "generators_out": len(result.generators),
                "relator_length_in": _words_length(args[0]),
                "relator_length_out": _words_length(result)}
    if name == "grouptheory.hom_count":
        presentation, group = args[0], args[1]
        return {"search_space": group.order ** len(presentation.generators),
                "homs": result[0]}
    return {}


class Tracer:
    """Context manager: wraps LAYERS on enter, restores the originals on exit.

    It may be entered again after an exit; spans accumulate across entries.
    Spans are recorded only while ``op`` is not None, so work the benchmark
    does between operations (oracles, input generation) is never counted.
    """

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1].sid if self._stack else None
            span = Span(len(self.spans), name, self.op, parent, entered, clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = clock()
                span.sizes = {"raised": type(exc).__name__}
                raise
            else:
                span.end = clock()
                span.sizes = _sizes(name, args, result) or None
                return result
            finally:
                self._stack.pop()
                span.returned = clock()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "gluesurf" or key.startswith("gluesurf."))]
        for module_name, func_name in self.layers:
            home = sys.modules[f"gluesurf.{module_name}"]
            original = getattr(home, func_name)
            traced = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, traced)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
