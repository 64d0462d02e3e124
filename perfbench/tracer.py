"""Per-layer spans and counts, recorded from the benchmark's own code.

:class:`Tracer` replaces each traced public function of ``thermocontact``
with a wrapper at every module attribute that holds it (the defining
module, the package, and every module that imported the name, such as
``cli.find_chords`` or ``processes.cw_magnetization_roots``), so calls are
seen whichever name they go through.  Spans stay in memory as
``(op, span, parent, name, start_ns, end_ns)`` tuples; a layer's self time
is its spans' durations minus the durations of their direct child spans.
``FrontFunction.value``/``slope`` calls are counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# traced function -> (defining module, layer that its time is charged to)
TRACED = {
    "find_chords": ("thermocontact.chords", "chords.find_chords"),
    "cw_magnetization_roots": ("thermocontact.models", "models.cw_magnetization_roots"),
    "check_path_nonnegative": ("thermocontact.phase_space", "phase_space.check_path_nonnegative"),
    "reduce": ("thermocontact.phase_space", "phase_space.reduce"),
    "path_to_csv": ("thermocontact.phase_space", "phase_space.path_io"),
    "path_from_csv": ("thermocontact.phase_space", "phase_space.path_io"),
    "lift_to_extended": ("thermocontact.microstate", "microstate.lift_to_extended"),
    "gibbs": ("thermocontact.microstate", "microstate.gibbs"),
    "fokker_planck_relax": ("thermocontact.processes", "processes.fokker_planck_relax"),
    "run_slow_isotopy": ("thermocontact.processes", "processes.run_slow_isotopy"),
    "dispatch": ("thermocontact.cli", "cli.dispatch"),
}

SELF_MS = sorted({layer for _, layer in TRACED.values()})
CALLS = ("models.cw_magnetization_roots", "microstate.lift_to_extended")


def _samples(args, kwargs) -> int:
    obj = args[0] if args else next(iter(kwargs.values()))
    return int(getattr(obj, "n_samples", 1))


def _grid_n(bind):
    def count(args, kwargs) -> int:
        bound = bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["grid_n"])

    return count


class Tracer:
    """Spans and counters of one traced run; install, run ops, uninstall."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, float] = {}
        self.op = 0
        self._stack: list[int] = [0]
        self._next = 1
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn, count_key: str | None = None, measure=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            before = tracer._pre(name, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, start, end))
            tracer._post(name, args, kwargs, before, result)
            if count_key:
                tracer.count(count_key, measure(args, kwargs) if measure else 1)
            return result

        return wrapper

    @staticmethod
    def _pre(name, args, kwargs):
        if name == "path_to_csv":
            dest = args[1] if len(args) > 1 else kwargs["dest"]
            return dest.tell() if hasattr(dest, "tell") else None
        return None

    def _post(self, name, args, kwargs, before, result) -> None:
        if name == "path_to_csv":
            dest = args[1] if len(args) > 1 else kwargs["dest"]
            if isinstance(dest, str):
                self.count("phase_space.csv_bytes", os.path.getsize(dest))
            else:
                self.count("phase_space.csv_bytes", dest.tell() - before)
        elif name == "fokker_planck_relax":
            self.count("processes.relax_nodes", len(result.t_grid))

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "thermocontact" or k.startswith("thermocontact."))]
        for name, (home, _) in TRACED.items():
            orig = getattr(sys.modules[home], name)
            count_key, measure = None, None
            if name in ("reduce", "check_path_nonnegative"):
                count_key, measure = "phase_space.samples", _samples
            elif name == "find_chords":
                count_key, measure = "chords.grid_nodes", _grid_n(inspect.signature(orig).bind)
            elif name in ("cw_magnetization_roots", "lift_to_extended"):
                count_key = f"{TRACED[name][1]}.calls"
            wrapper = self._wrap(name, orig, count_key, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        front = sys.modules["thermocontact.models"].FrontFunction
        for meth in ("value", "slope"):
            orig = getattr(front, meth)
            self._patched.append((front, meth, orig))
            setattr(front, meth, self._counter(orig))

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["models.front_evals"] = tracer.counts.get("models.front_evals", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation self times, counts and rates over the traced ops."""
        duration: dict[int, int] = {}
        child_time: dict[int, int] = {}
        for _, sid, parent, _, start, end in self.spans:
            duration[sid] = end - start
            child_time[parent] = child_time.get(parent, 0) + end - start
        self_ns: dict[str, int] = {layer: 0 for layer in SELF_MS}
        incl_ns: dict[str, int] = {}
        for _, sid, _, name, _, _ in self.spans:
            layer = TRACED[name][1]
            self_ns[layer] += duration[sid] - child_time.get(sid, 0)
            incl_ns[name] = incl_ns.get(name, 0) + duration[sid]
        out = {f"{layer}.self_ms": self_ns[layer] / 1e6 / n_ops for layer in SELF_MS}
        for key in CALLS:
            out[f"{key}.calls"] = self.counts.get(f"{key}.calls", 0) / n_ops
        for key in ("models.front_evals", "phase_space.csv_bytes", "processes.relax_nodes",
                    "cli.bytes_written"):
            out[key] = self.counts.get(key, 0) / n_ops
        finder_s = incl_ns.get("find_chords", 0) / 1e9
        out["chords.grid_nodes_per_s"] = self.counts.get("chords.grid_nodes", 0) / finder_s if finder_s else 0.0
        path_s = (incl_ns.get("reduce", 0) + incl_ns.get("check_path_nonnegative", 0)) / 1e9
        out["phase_space.samples_per_s"] = self.counts.get("phase_space.samples", 0) / path_s if path_s else 0.0
        out["trace.spans"] = len(self.spans) / n_ops
        return out
