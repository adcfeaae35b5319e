"""Outside-in per-layer trace of the ``nlsp`` package.

The tracer wraps, from outside the package, the calls into each layer:

* every public module-level function of a layer module, rebound in every
  ``nlsp`` module that holds a copy (``from .mappings import d_p`` binds
  one copy per importing module);
* every public method of each concrete target class, named per kind
  (``targets.spd.distance``), including methods inherited from
  ``TargetSpace``;
* each dataclass ``__post_init__`` (the validation step), named
  ``<layer>.<Class>.init``;
* the CLI entry point itself, as ``cli.main``.

A span's self time is its duration minus the time of the spans it called.
Time spent in modules that are not layers (``config``, ``rng``) counts as
self time of the layer that called them.  Spans and counts stay in memory
and go to the benchmark's own output only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

#: The package's modules that count as layers, from the bottom up.
LAYERS = ("targets", "mappings", "curves", "sections", "transport", "speed",
          "geometry", "suites", "cli")

#: Batteries whose ``run_*`` inclusive time is reported.
BATTERIES = ("fubini", "transport", "counterexample", "geodesic",
             "curvature", "length", "speed", "skorokhod")


class Tracer:
    """Call counts and self times per wrapped function, for one pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.names: set[str] = set()
        self.as_point_calls = 0
        self.as_point_first = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, bool, object]] = []
        # id -> weak reference of every point some ``as_point`` returned;
        # a later ``as_point`` on one of them re-validates a valid point.
        self._validated: dict[int, weakref.ref] = {}

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records one span called ``name``."""
        self.names.add(name)
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, inclusive = self.calls, self.self_s, self.inclusive_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - children[0]
                inclusive[name] += duration

        return wrapper

    def _watch_as_point(self, traced):
        """Count ``as_point`` calls whose argument was not validated yet."""
        validated = self._validated

        def forget(key):
            return lambda _ref: validated.pop(key, None)

        @functools.wraps(traced)
        def wrapper(target, y):
            ref = validated.get(id(y))
            first = ref is None or ref() is not y
            out = traced(target, y)
            self.as_point_calls += 1
            self.as_point_first += first
            key = id(out)
            ref = validated.get(key)
            if ref is None or ref() is not out:
                try:
                    validated[key] = weakref.ref(out, forget(key))
                except TypeError:  # a point type without weak references
                    pass
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        own = vars(owner)
        self._patches.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the layer functions of the imported ``nlsp`` package."""
        from nlsp.targets import TargetSpace

        wrapped = {}
        for layer in LAYERS[:-1]:
            module = sys.modules[f"nlsp.{layer}"]
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[obj] = self.span(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__", self.span(
                        f"{layer}.{name}.init", obj.__post_init__))
        targets = sys.modules["nlsp.targets"]
        for cls in vars(targets).values():
            if not (inspect.isclass(cls) and issubclass(cls, TargetSpace)) \
                    or inspect.isabstract(cls):
                continue
            for name in dir(cls):
                method = inspect.getattr_static(cls, name)
                if name.startswith("_") or not inspect.isfunction(method):
                    continue
                traced = self.span(f"targets.{cls.kind}.{name}", method)
                if name == "as_point":
                    traced = self._watch_as_point(traced)
                self._patch(cls, name, traced)
        for module_name, module in list(sys.modules.items()):
            if module_name != "nlsp" and not module_name.startswith("nlsp."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, name, wrapped[obj])

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, name, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every counter of this pass, plus the per-layer rollups.

        ``wall_s`` is the traced pass's wall time; what the spans do not
        cover is reported as ``trace.unattributed_s``, so the layer self
        times plus that remainder add up to ``wall_s``.
        """
        out: dict[str, float] = {}
        for name in sorted(self.names):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items()
                if name.split(".", 1)[0] == layer)
        for battery in BATTERIES:
            out[f"suites.run_{battery}.s"] = \
                self.inclusive_s.get(f"suites.run_{battery}", 0.0)
        out["targets.as_point.useful_ratio"] = (
            self.as_point_first / self.as_point_calls
            if self.as_point_calls else 1.0)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(
            out[f"{layer}.self_s"] for layer in LAYERS)
        return out
