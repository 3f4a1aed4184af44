"""Layer tracing: wraps ptdimer's layer functions at the sites the package
calls them from, and accounts each layer's self time.

Nothing inside ``src/ptdimer`` is changed. ``Tracer.install`` swaps each site
attribute for a timing wrapper and ``Tracer.uninstall`` puts every original
back; a site that no longer exists is recorded as absent, not an error.
Coarse calls (engine runs, integrations, writers) become spans with a parent;
per-call hooks (each RHS evaluation, each observable record) only add to
their layer's time and call count, since one span per call would cost more
than the work it times.
"""

from __future__ import annotations

import copy
import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_MARK = "__perfbench_wrapped__"

ENGINES = ("lindblad", "nonhermitian", "gaussian")

# (layer, owner, attribute, kind). The owner is a module, or "module:Class".
# kind: "span" (timed span), "leaf" (per-call counter), "ode" (integration
# span that also times the RHS closure passed in its OdeProblem), "write"
# (span that also counts the bytes of the file it wrote).
SITES = (
    ("lindblad", "ptdimer.lindblad", "evolve_density", "span"),
    ("nonhermitian", "ptdimer.nonhermitian", "evolve_nonhermitian", "span"),
    ("gaussian", "ptdimer.gaussian", "evolve_moments", "span"),
    ("ode", "ptdimer.lindblad", "integrate_adaptive", "ode"),
    ("ode", "ptdimer.nonhermitian", "integrate_adaptive", "ode"),
    ("ode", "ptdimer.gaussian", "integrate_adaptive", "ode"),
    ("observables", "ptdimer.observables:ObservableOps", "record_from_density", "leaf"),
    ("observables", "ptdimer.observables:ObservableOps", "record_from_pure", "leaf"),
    ("observables", "ptdimer.observables:ObservableOps", "record_from_nh_density", "leaf"),
    ("observables", "ptdimer.gaussian", "record_from_moments", "leaf"),
    ("fock", "ptdimer.scenarios", "FockSpace", "span"),
    ("fock", "ptdimer.scenarios", "fock_product_state", "span"),
    ("fock", "ptdimer.scenarios", "noon_state", "span"),
    ("fock", "ptdimer.scenarios", "thermal_density_matrix", "span"),
    ("fock", "ptdimer.lindblad", "beam_splitter_hamiltonian", "span"),
    ("fock", "ptdimer.lindblad", "mode_annihilator", "span"),
    ("fock", "ptdimer.nonhermitian", "lossy_hamiltonian", "span"),
    ("fock", "ptdimer.observables", "mode_annihilator", "span"),
    ("scenarios.compare", "ptdimer.scenarios", "compare_trajectories", "span"),
    ("scenarios.write", "ptdimer.scenarios", "write_csv", "write"),
    ("scenarios.write", "ptdimer.scenarios", "write_comparison", "write"),
    ("scenarios.write", "ptdimer.scenarios", "write_svg", "write"),
    ("scenarios", "ptdimer.cli", "run_scenario", "span"),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def wrapped_sites() -> list[str]:
    """Sites whose current attribute is a benchmark wrapper."""
    found = []
    for _, owner, attr, _ in SITES:
        target = _resolve_owner(owner)
        if getattr(getattr(target, attr, None), _MARK, False):
            found.append(f"{owner}.{attr}")
    return found


def assert_unwrapped() -> None:
    """Raise if any site still carries a wrapper (a timed run must not)."""
    found = wrapped_sites()
    if found:
        raise RuntimeError(f"timed run sees traced functions: {found}")


def _written_path(args, kwargs):
    path = kwargs.get("path", args[-1] if args else None)
    return path if isinstance(path, (str, os.PathLike)) else None


class Tracer:
    """Collects spans and per-layer totals for one traced pass."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.states_bytes_max = 0
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._open: Counter = Counter()  # open spans per layer (recursion guard)
        self._installed: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        record = {"layer": layer, "name": name, "parent": parent}
        self.spans.append(record)
        frame = [index, 0.0]
        self._stack.append(frame)
        self._open[layer] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._open[layer] -= 1
            record["start"] = start - self._t0
            record["seconds"] = duration
            self.self_s[layer] += duration - frame[1]
            if not self._open[layer]:
                self.inclusive[layer] += duration
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def add(self, layer: str, seconds: float) -> None:
        """Account a top-level interval timed outside any wrapper."""
        self.inclusive[layer] += seconds
        self.self_s[layer] += seconds
        self.calls[layer] += 1

    def _leaf(self, layer: str, fn):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.inclusive[layer] += duration
                tracer.self_s[layer] += duration
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration

        setattr(leaf, _MARK, True)
        return leaf

    def _spanned(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)

        setattr(spanned, _MARK, True)
        return spanned

    def _writer(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def writer(*args, **kwargs):
            with self.span(layer, name):
                result = fn(*args, **kwargs)
            path = _written_path(args, kwargs)
            if path is not None and os.path.exists(path):
                self.counts["bytes_written"] += os.path.getsize(path)
            return result

        setattr(writer, _MARK, True)
        return writer

    def _integrator(self, engine: str, fn):
        rhs_layer = f"{engine}.rhs"

        @functools.wraps(fn)
        def integrate(problem, *args, **kwargs):
            if hasattr(problem, "rhs"):
                problem = copy.copy(problem)
                problem.rhs = self._leaf(rhs_layer, problem.rhs)
            else:
                self.absent.append(f"{engine}: OdeProblem.rhs")
            with self.span("ode", f"{engine}.integrate"):
                traj = fn(problem, *args, **kwargs)
            stats = getattr(traj, "stats", None)
            for key in ("steps", "rejected", "rhs_evaluations"):
                self.counts[f"ode.{key}"] += getattr(stats, key, 0)
            states = getattr(traj, "states", None)
            self.states_bytes_max = max(self.states_bytes_max,
                                        getattr(states, "nbytes", 0))
            return traj

        setattr(integrate, _MARK, True)
        return integrate

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr, kind in SITES:
            target = _resolve_owner(owner)
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.absent.append(f"{owner}.{attr}")
                continue
            name = f"{owner}.{attr}"
            if kind == "leaf":
                wrapper = self._leaf(layer, original)
            elif kind == "ode":
                wrapper = self._integrator(owner.rsplit(".", 1)[1], original)
            elif kind == "write":
                wrapper = self._writer(layer, name, original)
            else:
                wrapper = self._spanned(layer, name, original)
            self._installed.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready totals; ``merge`` adds one from another process."""
        return {"inclusive": dict(self.inclusive), "self": dict(self.self_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "states_bytes_max": self.states_bytes_max,
                "absent": list(self.absent), "spans": self.spans}

    def merge(self, summary: dict) -> None:
        for key, value in summary["inclusive"].items():
            self.inclusive[key] += value
        for key, value in summary["self"].items():
            self.self_s[key] += value
        self.calls.update(summary["calls"])
        self.counts.update(summary["counts"])
        self.states_bytes_max = max(self.states_bytes_max,
                                    summary["states_bytes_max"])
        self.absent.extend(a for a in summary["absent"] if a not in self.absent)
        offset = len(self.spans)  # span parents are indices into the list
        self.spans += [dict(span, parent=None if span["parent"] is None
                            else span["parent"] + offset)
                       for span in summary["spans"]]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    inc, calls, counts = tracer.inclusive, tracer.calls, tracer.counts

    def per_call_us(layer: str) -> float:
        return inc[layer] / calls[layer] * 1e6 if calls[layer] else 0.0

    rhs_calls = sum(calls[f"{e}.rhs"] for e in ENGINES)
    attempts = counts["ode.steps"] + counts["ode.rejected"]
    metrics = {}
    for engine in ENGINES:
        metrics[f"{engine}.rhs_us"] = per_call_us(f"{engine}.rhs")
        metrics[f"{engine}.evolve_s"] = inc[engine]
    metrics["lindblad.rhs_s"] = inc["lindblad.rhs"]
    metrics.update({
        "ode.steps": counts["ode.steps"],
        "ode.rejected": counts["ode.rejected"],
        "ode.rhs_evals": rhs_calls,
        "ode.rhs_per_step": rhs_calls / attempts if attempts else 0.0,
        "ode.self_s": tracer.self_s["ode"],
        "ode.states_mb": tracer.states_bytes_max / 1e6,
        "observables.record_s": inc["observables"],
        "observables.record_us": per_call_us("observables"),
        "fock.setup_s": inc["fock"],
        "scenarios.compare_s": inc["scenarios.compare"],
        "scenarios.write_s": inc["scenarios.write"],
        "scenarios.bytes_written": counts["bytes_written"],
        "cli.import_s": inc["cli.import"],
        "trace.unaccounted_s": wall_s - sum(tracer.self_s.values()),
    })
    return metrics
