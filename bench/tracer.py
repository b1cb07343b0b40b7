"""Span tracer that wraps flagsim's layer functions from outside the package.

Each wrapper replaces a module attribute at the name its callers look it up
by (``flagsim.stepper.evaluate_elastics``, ``flagsim.control.step``, ...),
so no file of the package changes. A span records its duration and its
parent span; a layer's self time is its duration minus the time of its
child spans. Spans are aggregated in memory per (name, parent) as they
close, and counters are taken from the wrapped calls' arguments and
results.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "failures")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.failures = 0


class Tracer:
    """Aggregated spans and counters, plus the patches that produce them."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.edges: Counter = Counter()  # (parent, name) -> calls
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # open spans: [name, child seconds]
        self._restore: list = []

    def wrap(self, name: str, fn, observe=None):
        """Wrap fn in a span called name; observe(args, kwargs, result) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                stats = tracer.spans[name]
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[1]
                stats.failures += not ok
                tracer.edges[(parent, name)] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by its traced version; a missing attribute is skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, self.wrap(name, original, observe))
        self._restore.append((owner, attr, original))

    def install(self, flagsim) -> None:
        """Patch every traced layer at the names its callers use."""
        stepper, hydro, learning = flagsim.stepper, flagsim.hydro, flagsim.learning
        control, rod = flagsim.control, flagsim.rod

        traced_step = self.wrap("stepper.step", stepper.step, self._observe_step)
        for owner in (stepper, control):
            self._restore.append((owner, "step", getattr(owner, "step")))
            setattr(owner, "step", traced_step)
        traced_build = self.wrap("rod.build_initial_configuration",
                                 rod.build_initial_configuration)
        for owner in (rod, stepper, control):
            self._restore.append((owner, "build_initial_configuration",
                                  getattr(owner, "build_initial_configuration")))
            setattr(owner, "build_initial_configuration", traced_build)

        self.patch(stepper, "external_force", "stepper.external_force")
        self.patch(stepper, "evaluate_elastics", "elastic.evaluate_elastics")
        self.patch(stepper, "jacobian_from_eval", "elastic.jacobian_from_eval")
        self.patch(stepper, "simulate", "stepper.simulate")
        self.patch(hydro, "assemble_mobility", "hydro.assemble_mobility")
        self.patch(hydro, "clamped_spectrum", "hydro.clamped_spectrum",
                   self._observe_spectrum)
        self.patch(hydro, "solve_forces_and_head_spin", "hydro.solve_forces_and_head_spin")
        self.patch(learning, "simulate", "stepper.simulate")
        self.patch(learning, "generate_dataset", "learning.generate_dataset")
        self.patch(learning, "measure_cruise", "learning.measure_cruise")
        self.patch(learning, "extract_segments", "learning.extract_segments")
        self.patch(learning, "fit_inverse_maps", "learning.fit_inverse_maps")
        self.patch(learning, "train_regressor", "learning.train_regressor",
                   self._observe_training)
        self.patch(control, "run_closed_loop", "control.run_closed_loop")
        self.patch(control.Controller, "decide", "control.Controller.decide")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counters ---------------------------------------------------------

    def _observe_step(self, args, kwargs, result):
        controls = args[5] if len(args) > 5 else kwargs.get("controls")
        # The benchmark never sets a time step of its own, so a step with
        # one is a fallback substep of simulate.
        if getattr(controls, "time_step", None) is not None:
            self.counts["substeps"] += 1
        self.counts["newton_iters"] += getattr(result[1], "iterations", 0)

    def _observe_spectrum(self, args, kwargs, result):
        mobility, floor_fraction, viscosity = args[:3]
        inv = result[1]
        floor = floor_fraction / (8.0 * math.pi * viscosity * mobility.cutoff)
        self.counts["spectrum_entries"] += inv.size
        self.counts["spectrum_clamped"] += int(np.count_nonzero(inv >= (1.0 - 1e-12) / floor))

    def _observe_training(self, args, kwargs, result):
        self.counts["epochs"] += result.epochs

    # -- report -----------------------------------------------------------

    def table(self) -> list[str]:
        """One line per (parent, name) edge, then per-name totals."""
        lines = [f"span {parent or '-'} > {name}: {calls} calls"
                 for (parent, name), calls in sorted(self.edges.items(), key=str)]
        for name, s in sorted(self.spans.items()):
            lines.append(f"span {name}: {s.calls} calls, {s.total * 1e3:.1f} ms total, "
                         f"{s.self_time * 1e3:.1f} ms self, {s.failures} raised")
        return lines
