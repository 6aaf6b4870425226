"""Span and counter recorder that wraps preqholo's functions at their import sites.

``Recorder.install()`` rebinds every module attribute of the package that
refers to a traced function (``from .holonomy import kappa`` gives each
importing module its own binding), plus a few methods on their classes, and
``uninstall()`` puts the originals back.  Nothing inside the package changes.

Layer boundaries record spans (name, start, end, parent, op id).  Hot inner
calls (the vector field, the chart potential, generator gradients, dense
output reads) record aggregate counters instead of one span per call.  Spans
stay in memory until ``write``.

Calls are single-threaded and strictly nested, so a span's child coverage is
the sum of its direct child spans plus the outermost counted calls made while
it was the innermost open span; self time is duration minus that coverage.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from preqholo import cli, config, dynamics, families, holonomy, sphere, verify

_PACKAGE = "preqholo"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: Counter = dataclasses.field(default_factory=Counter)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """In-memory spans and counters for one traced run.

    ``clock`` is the time source; the harness points it at a clock that
    skips the host-speed sampler's own time.
    """

    def __init__(self):
        self.clock = perf_counter
        self.op = 0
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._stack: list[Span] = []
        self._counter_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.calls[name] += amount
        if self._stack:
            self._stack[-1].counts[name] += amount

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the ``name`` count and time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter_depth += 1
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._counter_depth -= 1
                self.seconds[name] += dt
                self.count(name)
                if self._stack and self._counter_depth == 0:
                    self._stack[-1].child_s += dt

        return wrapper

    def spanned(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result`` sees the value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=len(self.spans),
                name=name,
                op=self.op,
                parent=parent.id if parent else None,
                start=self.clock(),
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installing wrappers ---------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every package-module binding of ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _lift(self, fn):
        @functools.wraps(fn)
        def wrapper(eval_phase, *args, **kwargs):
            def counted_eval(s):
                self.count("families.lift_evals")
                return eval_phase(s)

            return fn(counted_eval, *args, **kwargs)

        return self.spanned("families.lift", wrapper)

    def _su2_grads(self, builder):
        """Loops built by ``builder`` get a counted generator gradient."""

        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            loop = builder(*args, **kwargs)
            f = loop.hamiltonian
            f = dataclasses.replace(f, grad=self.counted("su2.grad", f.grad))
            return dataclasses.replace(loop, hamiltonian=f)

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        traj_steps = lambda traj: self.count("dynamics.flow_steps", len(traj.ts))
        switches = lambda state: self.count("holonomy.chart_switches", state.transitions)

        def checks(result):
            self.count("verify.checks", len(result))
            self.count("verify.checks_failed", sum(not c["passed"] for c in result))

        spans = [
            (cli.run_scenario, "cli.run_scenario", None),
            (holonomy.kappa, "holonomy.kappa", None),
            (holonomy.transport_phase, "holonomy.transport", switches),
            (dynamics.integrate_isotopy, "dynamics.integrate_isotopy", traj_steps),
            (families.omega_eval, "families.omega", None),
            (verify.verify_level, "verify.verify_level", checks),
            (config.build_loop, "config.build", None),
            (config.build_family, "config.build", None),
        ]
        for fn, name, on_result in spans:
            self._rebind(fn, self.spanned(name, fn, on_result))
        self._rebind(families.lift_circle_samples, self._lift(families.lift_circle_samples))
        self._rebind(dynamics.hamiltonian_vector_field,
                     self.counted("dynamics.rhs", dynamics.hamiltonian_vector_field))
        self._rebind(sphere.potential_eval, self.counted("sphere.potential_eval", sphere.potential_eval))

        # Generator gradients of su2-built loops, wrapped where config imports them.
        for attr in ("invariant_loop", "mixing_loop"):
            self._set(config, attr, self._su2_grads(getattr(config, attr)))

        from_dict = config.Scenario.__dict__["from_dict"].__func__
        self._set(config.Scenario, "from_dict", classmethod(self.spanned("config.build", from_dict)))
        self._set(dynamics.Trajectory, "at", self.counted("families.traj_reads", dynamics.Trajectory.at))

        loop_at = families.LoopFamily.loop_at

        @functools.wraps(loop_at)
        def loop_at_counted(fam, s):
            self.count("families.loop_at")
            if float(s) in fam._cache:
                self.count("families.loop_cache_hits")
            return loop_at(fam, s)

        self._set(families.LoopFamily, "loop_at", loop_at_counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def _spans(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, top_level_only: bool = False) -> float:
        spans = self._spans(name)
        if top_level_only:
            spans = [s for s in spans if s.parent is None or self.spans[s.parent].name != name]
        return sum(s.duration for s in spans)

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self._spans(name))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over everything recorded (see BENCHMARK.json)."""
        transports = self._spans("holonomy.transport")
        rhs_in_transport = sum(s.counts["dynamics.rhs"] for s in transports)
        loop_at = self.calls["families.loop_at"]
        return {
            "dynamics.rhs_evals": self.calls["dynamics.rhs"],
            "dynamics.rhs_s": self.seconds["dynamics.rhs"],
            "dynamics.integrate_isotopy.calls": len(self._spans("dynamics.integrate_isotopy")),
            "dynamics.integrate_isotopy.s": self.total("dynamics.integrate_isotopy"),
            "dynamics.flow_steps": self.calls["dynamics.flow_steps"],
            "sphere.potential_eval.calls": self.calls["sphere.potential_eval"],
            "sphere.potential_eval.s": self.seconds["sphere.potential_eval"],
            "su2.grad.calls": self.calls["su2.grad"],
            "su2.grad.s": self.seconds["su2.grad"],
            "holonomy.transport.calls": len(transports),
            "holonomy.transport.self_s": self.self_total("holonomy.transport"),
            "holonomy.chart_switches": self.calls["holonomy.chart_switches"],
            "holonomy.rhs_per_transport": rhs_in_transport / len(transports) if transports else 0.0,
            "families.omega.calls": len(self._spans("families.omega")),
            "families.omega.self_s": self.self_total("families.omega"),
            "families.traj_reads": self.calls["families.traj_reads"],
            "families.lift_evals": self.calls["families.lift_evals"],
            "families.loop_cache_hit_ratio": (
                self.calls["families.loop_cache_hits"] / loop_at if loop_at else 0.0
            ),
            "verify.verify_level.s": self.total("verify.verify_level"),
            "verify.checks": self.calls["verify.checks"],
            "verify.checks_failed": self.calls["verify.checks_failed"],
            "config.build_s": self.total("config.build", top_level_only=True),
            "cli.run_scenario.self_s": self.self_total("cli.run_scenario"),
        }

    def write(self, path) -> None:
        """Write every span, and the counter totals, as JSON."""
        doc = {
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                    "counts": dict(s.counts),
                }
                for s in self.spans
            ],
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
