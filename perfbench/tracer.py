"""Outside-in span tracer for projderiv.

The tracer wraps the public functions of each projderiv module from outside
the package: every binding of a wrapped function is replaced, so a module
that imported a function by name (``from .spaces import norm``) calls the
wrapper too. Nothing in the package changes, and `Tracer.uninstall` puts
every original binding back.

Two kinds of wrapper are used:

- span wrappers record one span per call: the request it belongs to, its
  name, its parent span, start and end times, and a small note taken from the
  arguments or the result (sample counts, Remez iterations, verdicts);
- the `spaces` layer is called hundreds of thousands of times per pass, so
  its functions and vector constructors are aggregated instead: each keeps a
  call count and inclusive time, and the outermost `spaces` call adds its
  time to the enclosing span, which keeps every span's self time exact.

A span's self time is its duration minus its child spans and minus the
`spaces` time folded into it (see README.md).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "spaces",
    "projections",
    "chebyshev",
    "coderivatives",
    "limsup_oracle",
    "fixed_points",
    "experiments",
    "cli",
)

# (module, class, method) wrapped in addition to each module's public functions
METHODS = (
    ("spaces", "PrimalVector", "__init__"),
    ("spaces", "DualVector", "__init__"),
    ("coderivatives", "MapDescriptor", "value"),
    ("coderivatives", "MapDescriptor", "value_batch"),
    ("coderivatives", "MapDescriptor", "same_branch"),
    ("coderivatives", "MapDescriptor", "graph_contains"),
    ("coderivatives", "CoderivativeSet", "membership"),
    ("fixed_points", "FixedPointCharacterization", "membership"),
)

# layers whose calls are aggregated rather than recorded one span each
AGGREGATED_LAYERS = ("spaces",)


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "projderiv" or name.startswith("projderiv."))]


def _class(layer: str, cls_name: str):
    return getattr(importlib.import_module(f"projderiv.{layer}"), cls_name)


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        name for name in vars(module) if not name.startswith("_")
    ]
    for name in names:
        value = getattr(module, name, None)
        if callable(value) and getattr(value, "__module__", None) == module.__name__ \
                and not isinstance(value, type):
            yield name, value


# -- notes: what a span keeps from its call -----------------------------------

def _note_estimate(args, kwargs, result):
    schedule = args[4] if len(args) > 4 else kwargs["schedule"]
    rows = schedule.dirs_per_level + len(schedule.extra_rays)
    return {
        "samples": rows * schedule.levels,
        "extrapolated": result.extrapolated,
        "tol_accept": result.tol_accept,
        "tol_reject": result.tol_reject,
        "verdict": result.verdict.value,
        "trace_rows": len(result.trace),
    }


def _note_membership(args, kwargs, result):
    return {
        "extrapolated": result.extrapolated,
        "tol_accept": result.tol_accept,
        "tol_reject": result.tol_reject,
        "verdict": result.verdict.value,
    }


def _note_ray(args, kwargs, result):
    return {"limit": result}


def _note_remez(args, kwargs, result):
    return {"iterations": result.iterations}


def _note_value_batch(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _note_run_experiment(args, kwargs, result):
    return {"experiment": result.experiment}


def _note_experiment_trace(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"experiment": config.experiment}


NOTES = {
    "limsup_oracle.estimate_limsup": _note_estimate,
    "limsup_oracle.membership_test": _note_membership,
    "limsup_oracle.directed_ray_limit": _note_ray,
    "chebyshev.remez": _note_remez,
    "coderivatives.MapDescriptor.value_batch": _note_value_batch,
    "experiments.run_experiment": _note_run_experiment,
    "experiments.experiment_trace": _note_experiment_trace,
}

# span record fields
REQ, NAME, PARENT, START, END, SPACES_S, SPACES_N, NOTE = range(8)


class Tracer:
    """Records spans in memory while installed; `write` saves them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.requests: list[str] = []
        self.aggregated: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._aggregate_depth = 0
        self._request = -1
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._originals: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self._request, name_id, stack[-1] if stack else -1,
                      clock(), 0.0, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[END] = clock()
                stack.pop()
                record[NOTE] = {"error": type(exc).__name__}
                raise
            record[END] = clock()
            stack.pop()
            if note is not None:
                record[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _aggregate_wrapper(self, fn, name: str):
        stat = self.aggregated[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = self._aggregate_depth == 0
            self._aggregate_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._aggregate_depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                if outermost and stack:
                    record = spans[stack[-1]]
                    record[SPACES_S] += elapsed
                    record[SPACES_N] += 1

        return traced

    def _wrap(self, fn, name: str, layer: str):
        if layer in AGGREGATED_LAYERS:
            wrapper = self._aggregate_wrapper(fn, name)
        else:
            wrapper = self._span_wrapper(fn, name)
        self._wrappers[id(fn)] = wrapper
        self._originals[id(fn)] = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in every loaded
        projderiv module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer in MODULES:
                module = importlib.import_module(f"projderiv.{layer}")
                for name, fn in _public_functions(module):
                    self._wrap(fn, f"{layer}.{name}", layer)
            for layer, cls_name, method in METHODS:
                fn = vars(_class(layer, cls_name))[method]
                self._wrap(fn, f"{layer}.{cls_name}.{method}", layer)
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if self._is_original(value):
                    self._restore.append((module, key, value))
                    setattr(module, key, self._wrappers[id(value)])
        for layer, cls_name, method in METHODS:
            cls = _class(layer, cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value)) is value

    def unwrapped_bindings(self) -> list[str]:
        """Bindings of traced functions that still point at the original;
        empty while the tracer is installed and complete."""
        missing = [f"{module.__name__}.{key}" for module in _package_modules()
                   for key, value in vars(module).items() if self._is_original(value)]
        missing += [f"projderiv.{layer}.{cls_name}.{method}" for layer, cls_name, method in METHODS
                    if self._is_original(vars(_class(layer, cls_name))[method])]
        return missing

    # -- requests and output ---------------------------------------------

    def begin_request(self, label: str) -> None:
        """Start a new request (one CLI call); later spans carry its id."""
        self.requests.append(label)
        self._request = len(self.requests) - 1

    def end_request(self) -> None:
        self._request = -1

    def write(self, handle) -> None:
        """One JSON object per line: requests first, then spans in start
        order, then the aggregated `spaces` totals."""
        for req, label in enumerate(self.requests):
            handle.write(json.dumps({"request": req, "item": label}) + "\n")
        for idx, rec in enumerate(self.spans):
            line = {
                "id": idx,
                "request": rec[REQ],
                "name": self.names[rec[NAME]],
                "parent": rec[PARENT],
                "start": rec[START],
                "end": rec[END],
                "spaces_s": rec[SPACES_S],
                "spaces_calls": rec[SPACES_N],
            }
            if rec[NOTE] is not None:
                line["note"] = rec[NOTE]
            handle.write(json.dumps(line) + "\n")
        for name, (calls, seconds) in sorted(self.aggregated.items()):
            handle.write(json.dumps({"aggregate": name, "calls": calls, "seconds": seconds}) + "\n")
