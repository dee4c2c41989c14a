"""Span tracing of momabs from outside the package.

A :class:`Tracer` wraps every public function of each momabs module, plus
``SignalSpec.eval``, at every module binding a caller can look it up
through: ``momabs.linalg.solve_sylvester`` is also replaced where
``momabs.moments`` and ``momabs.abstraction`` imported it by name.  Each
call records a span (name, start, end, parent span, op id, raised, work
counts) in memory; :meth:`Tracer.layer_metrics` turns the spans into
per-op busy and self times and counts.  Wrappers are installed only around
traced ops and removed afterwards, so untraced ops run the original code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

LAYERS = ("cli", "sim", "signals", "modelio", "linalg", "moments", "abstraction", "springmass")
OP_SPAN = "op"

# span fields
NAME, START, END, PARENT, OP, RAISED, WORK = range(7)


def _rk4_work(args, kwargs, states):
    steps = states.shape[0] - 1
    return {"steps": steps, "state_steps": steps * states.shape[1]}


def _samples(args, kwargs, values):
    return {"samples": values.shape[0] if values.ndim == 2 else 1}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# span name -> (function of (args, kwargs, result) giving work counts, their keys)
WORK_COUNTS = {
    "sim.rk4_linear": (_rk4_work, ("steps", "state_steps")),
    "signals.eval": (_samples, ("samples",)),
    "modelio.write_csv": (_file_bytes, ("bytes",)),
    "modelio.write_svg": (_file_bytes, ("bytes",)),
}


class Tracer:
    """Records spans of momabs calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._bindings = self._find_bindings()
        self.names = sorted({name for *_, name in self._bindings})

    def _find_bindings(self) -> list[tuple]:
        import momabs
        from momabs.signals import SignalSpec

        modules = [importlib.import_module(f"momabs.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = (self._wrap(obj, name), name)
        bindings = []  # (owner, attribute, original, wrapper, span name)
        for module in [momabs, *modules]:
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    bindings.append((module, attr, obj, *wrappers[obj]))
        original = vars(SignalSpec)["eval"]
        bindings.append(
            (SignalSpec, "eval", original, self._wrap(original, "signals.eval"), "signals.eval")
        )
        return bindings

    def _wrap(self, fn, name: str):
        measure = WORK_COUNTS[name][0] if name in WORK_COUNTS else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self._op, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if measure is not None:
                span[WORK] = measure(args, kwargs, result)
            return result

        return traced

    def install(self, op_id) -> None:
        self._op = op_id
        for owner, attr, _, wrapper, _ in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in self._bindings:
            setattr(owner, attr, original)
        self._op = None

    def begin_op(self) -> None:
        """Open the root span of the current op; call inside the timed region."""
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, perf_counter(), 0.0, None, self._op, False, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = perf_counter()

    def layer_metrics(self, ops: int) -> dict:
        """Per-op busy/self times and counts, keyed ``<module>.<function>.<quantity>``.

        busy is inclusive wall time, self is busy minus the time of child
        spans; ``<module>.self_s`` sums self time over a module's functions
        and ``bench.self_s`` is op time spent outside every momabs span.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        # every traced function reports, with zeros when it was not called
        busy = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys([*self.names, OP_SPAN], 0.0)
        calls = dict.fromkeys(self.names, 0)
        raised = dict.fromkeys(self.names, 0)
        work = {f"{name}.{key}": 0 for name, (_, keys) in WORK_COUNTS.items() for key in keys}
        work["linalg.place_poles.sylvester_calls"] = 0
        for i, span in enumerate(self.spans):
            name, duration = span[NAME], span[END] - span[START]
            self_s[name] += duration - child[i]
            if name == OP_SPAN:
                continue
            busy[name] += duration
            calls[name] += 1
            raised[name] += span[RAISED]
            for key, value in (span[WORK] or {}).items():
                work[f"{name}.{key}"] += value
            parent = span[PARENT]
            if name == "linalg.solve_sylvester" and self.spans[parent][NAME] == "linalg.place_poles":
                work["linalg.place_poles.sylvester_calls"] += 1

        out = {}
        for name in self.names:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.errors"] = raised[name]
        out.update(work)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out["bench.self_s"] = self_s[OP_SPAN]
        out["sim.run.self_s"] = sum(v for k, v in self_s.items() if k.startswith("sim.run_"))
        per_op = {k: v / ops for k, v in out.items()}
        rk4_busy = busy["sim.rk4_linear"]
        per_op["sim.rk4_linear.state_steps_per_s"] = (
            work["sim.rk4_linear.state_steps"] / rk4_busy if rk4_busy else 0.0
        )
        per_op["trace.spans_per_op"] = len(self.spans) / ops
        return per_op

    def dump(self, path) -> None:
        """Write every span as JSON: one [name, start, end, parent, op, raised, work] list each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "raised", "work"],
                       "spans": self.spans}, fh)
