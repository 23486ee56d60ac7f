"""Observing the simulator from outside: timers, layer spans, counters.

Nothing here edits the program.  Every probe replaces an attribute of a
``repro`` class or module with a wrapper that calls the original, and
:meth:`Patcher.restore` puts the originals back.  Three probe sets:

- :class:`PhaseClock` (every run): a handful of coarse wrappers that
  split a pass into set-up (building deployments, harnesses, fabric
  clouds, the control plane) and traffic (``TestbedHarness.run``,
  ``FabricDeployment.run_hybrid``), and count the frames offered.
- :class:`Ledger` (traced passes): one span wrapper around every
  function and method defined in a layer package, accumulating calls
  and self time per function.  Self time is a span's duration minus
  the duration of the wrapped calls nested inside it, so the self
  times of all spans plus the time outside any span add up to the wall
  time.
- :class:`Counters` (traced passes): reads of the counters the program
  keeps, around each traffic run.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from typing import Callable, Dict, List, Optional

#: The packages measured as layers, in report order.  ``experiments``
#: and ``measure`` hold the glue the scenario engine dispatches into;
#: without them that work would count as scenario self time.
LAYERS = ("sim", "net", "traffic", "sriov", "vswitch", "host", "core",
          "scenario", "obs", "billing", "faults", "fabric", "perfmodel",
          "controlplane", "experiments", "measure")

#: Dunder methods worth a span: construction and call.  The rest
#: (hashing, comparison, repr) run implicitly inside builtins and count
#: toward their caller.
_WRAPPED_DUNDERS = ("__init__", "__call__")


def repro_modules() -> List[types.ModuleType]:
    """Every loaded ``repro`` module."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


def import_all() -> None:
    """Import every ``repro`` module, so no module imported later binds
    a spanned function by name and keeps it after the spans are
    removed."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _references() -> Dict[int, list]:
    """``id(value) -> [(module, name)]`` over every ``repro`` module's
    globals."""
    refs: Dict[int, list] = {}
    for module in repro_modules():
        for name, value in vars(module).items():
            refs.setdefault(id(value), []).append((module, name))
    return refs


class Patcher:
    """Attribute replacement with undo."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str,
                    make: Callable[[Callable], Callable]) -> None:
        self.set(cls, name, make(vars(cls)[name]))

    def wrap_function(self, module, name: str,
                      make: Callable[[Callable], Callable],
                      refs: Optional[Dict[int, list]] = None) -> None:
        """Wrap a module-level function and rebind every module that
        imported it by name (``from x import f``)."""
        original = getattr(module, name)
        wrapper = make(original)
        for owner, attr in (refs or _references())[id(original)]:
            self.set(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


class PhaseClock:
    """Set-up seconds, traffic seconds and frames of a pass.

    Nested set-up (a fabric deployment building its template
    deployment) counts once; set-up done inside a traffic run (the DES
    cloud ``run_hybrid`` builds) counts as set-up, not traffic.
    """

    def __init__(self) -> None:
        self.reset()
        self._depth = 0

    def reset(self) -> None:
        self.setup_s = 0.0
        self.traffic_s = 0.0
        #: Frames offered by the load generators, frames they saw
        #: delivered, and the offered frames of runs that resolved to
        #: the batched fast path.
        self.frames_sent = 0.0
        self.frames_delivered = 0.0
        self.batched_frames = 0.0
        #: HarnessResult/HybridResult of each traffic run, in order.
        self.runs: list = []

    def _setup(self, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed_setup(*args, **kwargs):
            clock._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock._depth -= 1
                if clock._depth == 0:
                    clock.setup_s += time.perf_counter() - start
        return timed_setup

    def _traffic(self, fn: Callable, frames: Callable) -> Callable:
        clock = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def timed_traffic(*args, **kwargs):
            setup_before = clock.setup_s
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            clock.traffic_s += elapsed - (clock.setup_s - setup_before)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sent, delivered, batched = frames(result, bound.arguments)
            clock.frames_sent += sent
            clock.frames_delivered += delivered
            clock.batched_frames += sent if batched else 0.0
            clock.runs.append(result)
            return result
        return timed_traffic

    def install(self, patcher: Patcher) -> None:
        from repro.controlplane.service import ControlPlane
        from repro.core import deployment
        from repro.core.multiserver import MultiServerCloud
        from repro.fabric.hybrid import FabricDeployment
        from repro.traffic.harness import TestbedHarness

        patcher.wrap_function(deployment, "build_deployment", self._setup)
        for cls in (TestbedHarness, FabricDeployment, MultiServerCloud,
                    ControlPlane):
            patcher.wrap_method(cls, "__init__", self._setup)
        patcher.wrap_method(TestbedHarness, "run", lambda fn: self._traffic(
            fn, lambda result, args: (result.sent, result.delivered,
                                      args["self"].lg.batch)))
        patcher.wrap_method(FabricDeployment, "run_hybrid",
                            lambda fn: self._traffic(fn, _hybrid_frames))


def _hybrid_frames(result, args):
    """The hybrid's study flows are periodic per-frame streams: offered
    frames are rate x duration, as a load generator counts them, and
    delivered frames are the measured rate over the post-warmup window."""
    window = args["duration"] - args["warmup"]
    return (sum(flow.rate_pps for flow in result.flows) * args["duration"],
            sum(result.delivered_pps.values()) * window, False)


class Ledger:
    """Calls and self time per wrapped function, grouped by layer."""

    def __init__(self) -> None:
        #: ``[child seconds]`` per open span; the root entry accumulates
        #: the time spent inside top-level spans.
        self.stack: List[float] = [0.0]
        #: qualified function name -> [calls, self seconds]
        self.stats: Dict[str, list] = {}
        self.layer_of: Dict[str, str] = {}

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        slot = self.stats.setdefault(name, [0, 0.0])
        self.layer_of[name] = layer
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                slot[0] += 1
                slot[1] += duration - stack.pop()
                stack[-1] += duration
        return spanned

    def install(self, patcher: Patcher) -> None:
        refs = _references()
        for module in repro_modules():
            layer = module.__name__.split(".")[1:2]
            if layer and layer[0] in LAYERS:
                self._install_module(patcher, module, layer[0], refs)

    def _install_module(self, patcher: Patcher, module, layer: str,
                        refs: Dict[int, list]) -> None:
        for name, value in list(vars(module).items()):
            if _is_own(value, module):
                if isinstance(value, types.FunctionType):
                    if _spannable(name, value, dunders=False):
                        patcher.wrap_function(
                            module, name, functools.partial(
                                self.span, layer, _qualname(value)), refs)
                elif isinstance(value, type) and _patchable_class(value):
                    self._install_class(patcher, value, layer)

    def _install_class(self, patcher: Patcher, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            fn = getattr(attr, "__func__", attr)
            if not isinstance(fn, types.FunctionType) or \
                    not _spannable(name, fn, dunders=True):
                continue
            wrapped = self.span(layer, _qualname(fn), fn)
            if isinstance(attr, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(wrapped)
            patcher.set(cls, name, wrapped)

    def layer_totals(self) -> Dict[str, list]:
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for name, (calls, self_s) in self.stats.items():
            entry = totals[self.layer_of[name]]
            entry[0] += calls
            entry[1] += self_s
        return totals

    def calls_matching(self, prefix: str) -> int:
        return sum(s[0] for n, s in self.stats.items() if n.startswith(prefix))

    @property
    def spanned_s(self) -> float:
        """Seconds spent inside top-level spans (the sum of all self
        times)."""
        return self.stack[0]


def _qualname(fn: Callable) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def _is_own(value, module) -> bool:
    return getattr(value, "__module__", None) == module.__name__


def _spannable(name: str, fn: types.FunctionType, dunders: bool) -> bool:
    if name.startswith("__") and name.endswith("__"):
        if not dunders or name not in _WRAPPED_DUNDERS:
            return False
    # A generator's body runs in its consumer, after the call returned.
    return not (inspect.isgeneratorfunction(fn)
                or inspect.iscoroutinefunction(fn))


def _patchable_class(cls: type) -> bool:
    return not issubclass(cls, (BaseException, enum.Enum))


class Counters:
    """The program's own counters, read around each traffic run and
    summed over a pass (traced runs only).

    Install before the :class:`Ledger`: the reads then use the
    functions as they were before spans were added, so the
    benchmark's own reads do not count as calls into ``obs``.
    """

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + value

    def get(self, key: str) -> float:
        return self.values.get(key, 0.0)

    def install(self, patcher: Patcher) -> None:
        from repro.fabric.hybrid import FabricDeployment
        from repro.obs import REGISTRY, MetricsRegistry
        from repro.obs.integrate import drop_totals, harvest
        from repro.sim.kernel import Simulator
        from repro.traffic.harness import TestbedHarness

        counters = self
        snapshot = REGISTRY.snapshot

        def deployment_counts(deployment) -> Dict[str, float]:
            """Cumulative drops by reason and datapath flow-cache misses
            (each an upcall that installs a new flow), read without
            mutating the deployment."""
            counts = dict(drop_totals(deployment))
            counts["flow_misses"] = sum(bridge.cache.stats.misses
                                        for bridge in deployment.bridges
                                        if bridge.cache is not None)
            return counts

        def events(fn):
            @functools.wraps(fn)
            def counted_run(sim, *args, **kwargs):
                before = sim.events_fired
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    counters.add("sim.events", sim.events_fired - before)
            return counted_run

        def harness(fn):
            @functools.wraps(fn)
            def counted_harness_run(h, *args, **kwargs):
                registry_before = snapshot()
                before = deployment_counts(h.deployment)
                result = fn(h, *args, **kwargs)
                registry_after = snapshot()
                for key, value in deployment_counts(h.deployment).items():
                    counters.add(key, value - before.get(key, 0.0))
                # The harness folds cache hits and lookups into the
                # registry after each run; the delta is this run's.
                for key, name in _REGISTRY_KEYS.items():
                    counters.add(name, registry_after.get(key, 0.0)
                                 - registry_before.get(key, 0.0))
                return result
            return counted_harness_run

        def hybrid(fn):
            @functools.wraps(fn)
            def counted_hybrid(fd, *args, **kwargs):
                result = fn(fd, *args, **kwargs)
                counters.add("fabric.des_events", result.des_events)
                # The DES cloud's deployments are never harvested by
                # the program, so a first harvest reads their totals.
                scratch = MetricsRegistry()
                for deployment in fd.last_cloud.deployments:
                    delta = harvest(deployment, scratch)
                    delta["emc_lookups"] = (delta["emc_hits"]
                                            + delta["emc_misses"])
                    for key in _REGISTRY_KEYS.values():
                        counters.add(key, delta[key])
                    for key, value in deployment_counts(deployment).items():
                        counters.add(key, value)
                return result
            return counted_hybrid

        patcher.wrap_method(Simulator, "run", events)
        patcher.wrap_method(TestbedHarness, "run", harness)
        patcher.wrap_method(FabricDeployment, "run_hybrid", hybrid)


#: Registry counters the harness harvests, by the key names of
#: :func:`repro.obs.integrate.harvest`'s delta.
_REGISTRY_KEYS = {
    'cache_hits_total{cache="emc"}': "emc_hits",
    'cache_lookups_total{cache="emc"}': "emc_lookups",
    'cache_hits_total{cache="plan"}': "plan_hits",
    'cache_lookups_total{cache="plan"}': "plan_lookups",
    'cache_hits_total{cache="veb_memo"}': "veb_memo_hits",
    'cache_lookups_total{cache="veb_memo"}': "veb_forwards",
    'cache_hits_total{cache="filter_memo"}': "filter_memo_hits",
    'cache_lookups_total{cache="filter_memo"}': "filter_evals",
    "plan_invalidations_total": "plan_invalidations",
}
