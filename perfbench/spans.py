"""Span tracing from the benchmark's own code, around each layer's entry points.

:class:`Tracer` replaces entry points of the program's classes and modules
with thin wrappers, only inside the traced repetition's interpreter.  Each
wrapper records one span (name, start, end, parent) into flat in-memory
arrays while the measured phase runs; :meth:`Tracer.report` writes them out
and folds them into per-layer self-times.  Span names are
``<layer>.<entry point>``, and layers are named after ``src/repro/``
packages.

Callbacks scheduled through ``Simulator.schedule``/``schedule_at`` are
wrapped too and attributed to the package of the module that defined them
(``<layer>.callback``); in-flight network deliveries, which the network
pushes onto the event heap itself, are spans named ``net.deliver``.
Anything outside the named packages (the benchmark's own scheduled
callbacks) is layer ``other``.

The wrappers only add host time: the traced run's work counters and outcome
fingerprint must equal the untraced run's (``run.py`` checks it).  The time
they add is measured by :meth:`Tracer.calibrate` on empty spans in the same
interpreter and taken out of the self-times in :meth:`Tracer.report`.
"""

from __future__ import annotations

import json
import operator
import os
import statistics
import sys
import time
from array import array
from functools import partial
from itertools import repeat
from typing import Callable, Dict, List

from stats import self_times

LAYERS = ("sim", "net", "crypto", "group", "overlay", "smr", "core", "other")


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def _module_of(callback) -> str:
    while isinstance(callback, partial):
        callback = callback.func
    module = getattr(callback, "__module__", None)
    if not isinstance(module, str):
        module = type(callback).__module__
    return module


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.active = False
        self._digest_wrapper = None
        self._callback_wrappers: Dict[str, Callable] = {}  # defining module -> span wrapper

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        # Keep the wrapped function's module so callbacks bound to a wrapped
        # method stay attributed to the program's layer, not to this file.
        traced.__module__ = getattr(fn, "__module__", None) or __name__
        return traced

    def _patch(self, owner, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.wrap(name, owner.__dict__[attribute]))

    # ------------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every layer's entry points; call after importing the program."""
        from repro.core.cluster import AtumCluster
        from repro.core.node import AtumNode
        from repro.group.heartbeat import HeartbeatMonitor
        from repro.group.messages import GroupMessenger
        from repro.net import latency, network
        from repro.overlay.membership import MembershipEngine
        from repro.sim.simulator import Simulator
        from repro.smr.base import SmrReplica
        from repro.smr.dolev_strong import SyncSmrReplica
        from repro.smr.pbft import PbftReplica

        self._patch(Simulator, "run", "sim.run")
        for method in ("schedule", "schedule_at"):
            self._patch_schedule(Simulator, method)
        for method in ("send", "send_fanout", "send_one", "send_burst"):
            self._patch(network.Network, method, f"net.{method}")
        self._patch(network._Delivery, "__call__", "net.deliver")
        for value in vars(latency).values():
            if (
                isinstance(value, type)
                and issubclass(value, latency.LatencyModel)
                and "sample" in value.__dict__
                and not getattr(value.__dict__["sample"], "__isabstractmethod__", False)
            ):
                self._patch(value, "sample", "net.latency")
        self._patch(GroupMessenger, "send", "group.send")
        self._patch(GroupMessenger, "handle", "group.handle")
        for method in ("start", "stop", "set_period", "observe", "forget", "_tick"):
            self._patch(HeartbeatMonitor, method, "group.heartbeat_" + method.strip("_"))
        for cls in (SmrReplica, SyncSmrReplica, PbftReplica):
            for method in ("propose", "on_message", "reconfigure"):
                if method in cls.__dict__:
                    self._patch(cls, method, f"smr.{method}")
        for method in ("bootstrap", "build_static", "join", "leave", "enforce_bounds"):
            self._patch(MembershipEngine, method, f"overlay.{method}")
        for method in ("on_message", "broadcast", "install_view"):
            self._patch(AtumNode, method, f"core.{method}")
        for method in ("add_node", "join", "broadcast"):
            self._patch(AtumCluster, method, f"core.cluster_{method}")
        self.patch_digest()

    def patch_digest(self) -> None:
        """Wrap ``digest_object`` in every loaded module that imported it by name.

        Idempotent; call again after lazily-imported modules have loaded.
        """
        from repro.crypto import digest

        original = getattr(digest.digest_object, "__wrapped__", digest.digest_object)
        if self._digest_wrapper is None:
            self._digest_wrapper = self.wrap("crypto.digest", original)
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            if module.__dict__.get("digest_object") is original:
                module.digest_object = self._digest_wrapper

    def _patch_schedule(self, owner, attribute: str) -> None:
        scheduled = self._schedule_shim(owner.__dict__[attribute])
        setattr(owner, attribute, self.wrap("sim." + attribute, scheduled))

    def _schedule_shim(self, original: Callable) -> Callable:
        wrap_callback = self.wrap_callback

        def scheduled(self_, when, callback, *args, **kwargs):
            # Wrapped even while inactive: events scheduled during set-up
            # fire inside the measured phase, where the wrapper records.
            return original(self_, when, wrap_callback(callback), *args, **kwargs)

        return scheduled

    def wrap_callback(self, callback: Callable) -> Callable:
        """``callback`` as a ``<layer>.callback`` span of its defining module's layer."""
        module = _module_of(callback)
        wrapper = self._callback_wrappers.get(module)
        if wrapper is None:
            span = layer_of_module(module) + ".callback"
            wrapper = self._callback_wrappers[module] = self.wrap(span, operator.call)
        return partial(wrapper, callback)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self.patch_digest()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def calls(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for name_id in self.name_ids:
            counts[name_id] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def _clear(self) -> None:
        for column in (self.name_ids, self.parents, self.starts, self.ends):
            del column[:]

    def calibrate(self, spans: int = 20_000, batches: int = 9) -> Dict[str, float]:
        """The tracer's own time per span, in seconds, timed on empty spans.

        Each batch times a loop of ``spans`` calls to an empty function, once
        bare and once through the wrappers, inside an outer span.  ``own`` is
        the wrapper time inside an empty span's interval, ``parent`` the
        wrapper time the span adds to its parent outside that interval (the
        traced loop's self-time minus the bare loop's time).  ``callback_*``
        are the same for scheduled-callback spans, and ``schedule`` is the
        callback wrapping done inside each ``sim.schedule*`` span.  Each is
        the median over the batches.  A fresh tracer records the spans, so
        this one's spans are untouched.
        """
        probe = Tracer()
        probe.active = True
        clock = time.perf_counter
        inner = probe.wrap("inner", _empty)
        outer = probe.wrap("outer", _loop)
        callback = probe.wrap_callback(_empty)
        shim = probe._schedule_shim(_empty)
        found: Dict[str, List[float]] = {}
        for _ in range(batches):
            timed = {}
            for key, fn, args in (("", inner, (None,)), ("callback_", callback, ())):
                probe._clear()
                begin = clock()
                _loop(_empty, spans, args)
                bare = clock() - begin
                outer(fn, spans, args)
                program, _ = self_times(
                    probe.name_ids, probe.starts, probe.ends, probe.parents, probe.names
                )
                timed[key + "parent"] = (program["outer"] - bare) / spans
                timed[key + "own"] = sum(v for k, v in program.items() if k != "outer") / spans
            begin = clock()
            _loop(_empty, spans, (None, 0.0, _empty))
            bare = clock() - begin
            begin = clock()
            _loop(shim, spans, (None, 0.0, _empty))
            timed["schedule"] = (clock() - begin - bare) / spans
            for key, value in timed.items():
                found.setdefault(key, []).append(value)
        return {key: statistics.median(values) for key, values in found.items()}

    def report(self, out_path=None, costs=None) -> dict:
        """Per-span-name self-times, tracer costs and call counts.

        ``costs`` is a :meth:`calibrate` result; without it nothing is taken
        out.  Spans are written to ``out_path`` when given.
        """
        if out_path:
            os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
            with open(out_path + ".bin", "wb") as handle:
                for column in (self.name_ids, self.parents, self.starts, self.ends):
                    column.tofile(handle)
            with open(out_path + ".json", "w") as handle:
                json.dump(
                    {
                        "names": self.names,
                        "count": len(self.name_ids),
                        "columns": ["name_id:i32", "parent:i32", "start:f64", "end:f64"],
                    },
                    handle,
                )
        own_cost = parent_cost = None
        if costs is not None:
            own_cost, parent_cost = [], []
            for name in self.names:
                kind = "callback_" if name.endswith(".callback") else ""
                schedule = costs["schedule"] if name in ("sim.schedule", "sim.schedule_at") else 0.0
                own_cost.append(costs[kind + "own"] + schedule)
                parent_cost.append(costs[kind + "parent"])
        program, tracer = self_times(
            self.name_ids, self.starts, self.ends, self.parents, self.names, own_cost, parent_cost
        )
        run_id = self._ids.get("sim.run")
        run_total = 0.0
        if run_id is not None:
            for index, name_id in enumerate(self.name_ids):
                if name_id == run_id and self.parents[index] < 0:
                    run_total += self.ends[index] - self.starts[index]
        return {
            "self_s": program,
            "tracer_s": tracer,
            "calls": self.calls(),
            "run_total_s": run_total,
            "spans": len(self.name_ids),
            "costs": costs,
        }


def _empty(*args):
    return None


def _loop(fn, count, args):
    for _ in repeat(None, count):
        fn(*args)
