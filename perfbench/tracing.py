"""Spans and counters at langevin-kit's layer boundaries, recorded from outside.

``traced(tracer)`` replaces the names callers look up (module attributes and
one class attribute) with timing wrappers, and puts every original back on
exit, so code timed outside the block never runs a wrapper. The library is not
changed.

Each wrapped call adds to a per-thread counter keyed by its name: calls, total
time, self time (total minus the time of wrapped calls nested in it on the
same thread) and a work count. Coarse calls also leave a span (name, start,
end, parent id, thread). Hot per-step calls leave only counters, so a run of
millions of steps keeps a fixed amount of memory. Everything stays in memory
until the caller writes it out.

The first part of a name is the layer: ``rng`` stands for the ``_rng`` module,
the others are module names. Self times are thread-seconds: work done by two
pool workers at once counts twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace

# Relative tolerance of the identity checked by ``Tracer.accounting``.
ACCOUNTING_TOLERANCE = 0.02


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str


@dataclass
class Counter:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class _Frame:
    __slots__ = ("name", "span_id", "parent", "start", "child_s")

    def __init__(self, name, span_id, parent, start):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Collects spans and counters from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pools: list[tuple[str, int, float]] = []  # (layer, workers, wall seconds)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counters: list[tuple[bool, dict[str, Counter]]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.counters = {}
            is_main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self._thread_counters.append((is_main, self._local.counters))
        return stack

    def enter(self, name: str, span: bool = False, parent: int | None = None) -> _Frame:
        stack = self._stack()
        span_id = None
        if span:
            span_id = next(self._ids)
            if parent is None:
                parent = next((f.span_id for f in reversed(stack) if f.span_id), None)
        frame = _Frame(name, span_id, parent, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, work: int = 0) -> float:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        counter = self._local.counters.get(frame.name)
        if counter is None:
            counter = self._local.counters[frame.name] = Counter()
        counter.calls += 1
        counter.total_s += duration
        counter.self_s += duration - frame.child_s
        counter.work += work
        if frame.span_id is not None:
            self.spans.append(Span(frame.span_id, frame.name, frame.start, end,
                                   frame.parent, threading.current_thread().name))
        return duration

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        frame = self.enter(name, span=True, parent=parent)
        try:
            yield frame.span_id
        finally:
            self.exit(frame)

    def wrap(self, name: str, fn, work=None, span: bool = False):
        """``fn`` timed under ``name``; ``work(args, result)`` counts its work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name, span=span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame, work(args, result) if work else 0)
            return result

        return wrapper

    def pool_class(self, layer: str, base):
        """A subclass of the executor ``base`` whose lifetime is a ``<layer>.pool``
        span on the caller's thread and whose tasks are ``<layer>.pool_task``
        spans on the worker threads, parented to the pool span."""
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._trace_frame = tracer.enter(f"{layer}.pool", span=True)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    wall = tracer.exit(self._trace_frame)
                    tracer.pools.append((layer, self._max_workers, wall))

            def submit(self, fn, /, *args, **kwargs):
                parent = self._trace_frame.span_id

                def task(*a, **k):
                    with tracer.span(f"{layer}.pool_task", parent=parent):
                        return fn(*a, **k)

                return super().submit(task, *args, **kwargs)

        return TracedPool

    # -- results -----------------------------------------------------------

    def counters(self, main_thread: bool | None = None) -> defaultdict[str, Counter]:
        """Counters summed over threads (only the main or only other threads
        when ``main_thread`` is given); a name never called reads as zeros."""
        out: defaultdict[str, Counter] = defaultdict(Counter)
        with self._lock:
            per_thread = list(self._thread_counters)
        for is_main, counters in per_thread:
            if main_thread is not None and is_main != main_thread:
                continue
            for name, c in counters.items():
                acc = out[name]
                acc.calls += c.calls
                acc.total_s += c.total_s
                acc.self_s += c.self_s
                acc.work += c.work
        return out

    def accounting(self) -> dict[str, float]:
        """Split of the traced time into work and pool idle time.

        Main-thread self time outside pool spans, plus the pools' worker self
        time and idle time divided by the worker count, equals the main
        thread's traced time when the bookkeeping is complete.
        """
        workers = {w for _, w, _ in self.pools}
        if len(workers) > 1:
            raise ValueError(f"pools of different sizes in one run: {sorted(workers)}")
        n = workers.pop() if workers else 1
        main = sum(c.self_s for k, c in self.counters(True).items() if not k.endswith(".pool"))
        busy = sum(c.self_s for c in self.counters(False).values())
        idle = sum(w * wall for _, w, wall in self.pools) - busy
        return {"main_self_s": main, "worker_self_s": busy, "pool_idle_s": idle,
                "workers": n, "accounted_s": main + (busy + idle) / n}


def _layer_sum(counters, layer, field="self_s", skip=(".pool",)):
    return sum(getattr(c, field) for name, c in counters.items()
               if name.split(".")[0] == layer and not name.endswith(skip))


def _per(numerator_s, count, scale=1e9):
    return numerator_s * scale / count if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by benchmark metric name."""
    c = tracer.counters()
    step, force = c["core.step"], c["core.force"]
    hist, ref = c["convergence.histogram"], c["convergence.reference"]
    energy = c["lyapunov.energy"]
    out = {
        "rng.self_s": _layer_sum(c, "rng"),
        "rng.calls": _layer_sum(c, "rng", "calls"),
        "rng.normals": _layer_sum(c, "rng", "work"),
        "core.self_s": _layer_sum(c, "core", skip=(".pool", ".force")),
        "core.step_calls": step.calls,
        "core.chain_steps": step.work,
        "core.ns_per_chain_step": _per(step.total_s, step.work),
        "core.force_s": force.total_s,
        "core.force_calls": force.calls,
        "core.force_points": force.work,
        "core.force_ns_per_point": _per(force.total_s, force.work),
        "schemes.self_s": _layer_sum(c, "schemes"),
        "convergence.self_s": _layer_sum(c, "convergence"),
        "convergence.histogram_s": hist.total_s,
        "convergence.histogram_samples": hist.work,
        "convergence.histogram_ns_per_sample": _per(hist.total_s, hist.work),
        "convergence.reference_s": ref.total_s,
        "convergence.reference_steps": ref.work,
        "lyapunov.self_s": _layer_sum(c, "lyapunov"),
        "lyapunov.energy_points": energy.work,
        "lyapunov.energy_ns_per_point": _per(energy.total_s, energy.work),
        "cli.self_s": _layer_sum(c, "cli"),
        "cli.validate_s": c["cli.validate"].total_s,
        "cli.output_s": c["cli.output"].total_s,
    }
    out["rng.ns_per_normal"] = _per(out["rng.self_s"], out["rng.normals"])
    for layer in ("convergence", "lyapunov"):
        pools = [(w, wall) for name, w, wall in tracer.pools if name == layer]
        capacity = sum(w * wall for w, wall in pools)
        tasks = c[f"{layer}.pool_task"]
        out[f"{layer}.pool_tasks"] = tasks.calls
        out[f"{layer}.pool_wait_s"] = sum(wall for _, wall in pools)
        out[f"{layer}.pool_busy_fraction"] = tasks.total_s / capacity if capacity else 0.0
    return out


# Work counts: wrapped call's (args, result) -> count.


def _points(args, result):
    # Rows of an (..., d) batch of positions.
    x = args[0]
    return x.size // x.shape[-1] if x.ndim else 1


def _size(args, result):
    return result.size


def _chains(args, result):
    return args[1].shape[0]


def _rows(args, result):
    return len(args[0])


def _trajectory_steps(args, result):
    return args[2].ensemble * args[2].n_steps


def _reference_steps(args, result):
    return result[1]


def _traced_potential(tracer, make_potential):
    """make_potential whose ForceModel.b is counted as ``core.force``."""

    @functools.wraps(make_potential)
    def wrapper(spec):
        force = make_potential(spec)
        return replace(force, b=tracer.wrap("core.force", force.b, _points))

    return wrapper


def _traced_scheme(tracer, as_general_scheme):
    """as_general_scheme whose drift corrections are counted as ``schemes.f/g``."""

    @functools.wraps(as_general_scheme)
    def wrapper(kind, params):
        scheme = as_general_scheme(kind, params)
        return replace(scheme, f=tracer.wrap("schemes.f", scheme.f),
                       g=tracer.wrap("schemes.g", scheme.g))

    return wrapper


def _unwrapped_force(scalar_step_closure):
    """scalar_step_closure built on the original force: the stationary
    reference run's per-step closure stays untraced."""

    @functools.wraps(scalar_step_closure)
    def wrapper(kind, params, *args, **kwargs):
        raw_b = getattr(params.force.b, "__wrapped__", None)
        if raw_b is not None:
            params = replace(params, force=replace(params.force, b=raw_b))
        return scalar_step_closure(kind, params, *args, **kwargs)

    return wrapper


def patch_points():
    """(owner, attribute) of every name ``traced`` replaces."""
    return [(owner, attr) for owner, attr, _ in _patches(Tracer())]


def _patches(t: Tracer):
    from langevin_kit import _rng, cli, convergence, lyapunov

    return [
        (cli, "validate_config", t.wrap("cli.validate", cli.validate_config, span=True)),
        (cli, "_write_outputs", t.wrap("cli.output", cli._write_outputs, span=True)),
        (cli, "make_potential", _traced_potential(t, cli.make_potential)),
        (cli, "minorization_probe",
         t.wrap("convergence.minorization_probe", cli.minorization_probe, span=True)),
        (cli, "fit_geometric_rate",
         t.wrap("convergence.fit_geometric_rate", cli.fit_geometric_rate, span=True)),
        (cli, "stationary_moment_bias",
         t.wrap("convergence.stationary_moment_bias", cli.stationary_moment_bias, span=True)),
        (cli, "solve_poisson", t.wrap("convergence.solve_poisson", cli.solve_poisson, span=True)),
        (cli, "estimate_drift", t.wrap("lyapunov.estimate_drift", cli.estimate_drift, span=True)),
        (cli, "simulate_chain",
         t.wrap("core.simulate_chain", cli.simulate_chain, _trajectory_steps, span=True)),
        (convergence, "step_ensemble", t.wrap("core.step", convergence.step_ensemble, _chains)),
        (lyapunov, "step_ensemble", t.wrap("core.step", lyapunov.step_ensemble, _chains)),
        (convergence, "as_general_scheme", _traced_scheme(t, convergence.as_general_scheme)),
        (lyapunov, "as_general_scheme", _traced_scheme(t, lyapunov.as_general_scheme)),
        (convergence, "_histogram_counts",
         t.wrap("convergence.histogram", convergence._histogram_counts, _rows)),
        (convergence, "_reference_histogram",
         t.wrap("convergence.reference", convergence._reference_histogram, _reference_steps,
                span=True)),
        (convergence, "scalar_step_closure", _unwrapped_force(convergence.scalar_step_closure)),
        (convergence, "ThreadPoolExecutor",
         t.pool_class("convergence", convergence.ThreadPoolExecutor)),
        (lyapunov, "ThreadPoolExecutor", t.pool_class("lyapunov", lyapunov.ThreadPoolExecutor)),
        (lyapunov, "phi_gamma", t.wrap("lyapunov.energy", lyapunov.phi_gamma, _points)),
        (_rng.NoiseSource, "block_at", t.wrap("rng.block_at", _rng.NoiseSource.block_at, _size)),
        (_rng, "normal_block", t.wrap("rng.normal_block", _rng.normal_block, _size)),
        (_rng, "chain_normals", t.wrap("rng.chain_normals", _rng.chain_normals, _size)),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Route langevin-kit's layer boundaries through ``tracer`` inside the block."""
    patches = _patches(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
