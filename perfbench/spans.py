"""Per-layer self time, measured from outside the simulator.

The traced run wraps public entry points of ``repro`` at class level
before the fabric is built, so every instance picks the wrappers up and
no file under ``src/`` changes.  Three kinds of spans:

* every callback handed to ``Engine.schedule``, ``schedule_at`` and
  ``schedule_pooled`` runs inside a span charged to the layer of the
  callback's module (the callback travels through a trampoline; the
  event's time, priority and sequence number are untouched);
* nested spans on the public entry points in :data:`ENTRY_POINTS`;
* spans on ``Link.on_free`` / ``Link.on_credit``, the callbacks a switch or
  HCA hands its outgoing links, wrapped after the build
  (:meth:`SpanRecorder.wrap_link_callbacks`).

A layer's self time is its spans' duration minus the part covered by
child spans; time spent in callbacks whose module maps to no layer is
``unattributed``.
"""

from __future__ import annotations

import time

#: Layer name -> module prefixes charged to it.
LAYER_MODULES = {
    "engine": ("repro.sim.engine", "repro.sim.scheduler"),
    "link": ("repro.iba.link", "repro.iba.buffers"),
    "switch": ("repro.iba.switch", "repro.iba.arbiter"),
    "hca": ("repro.iba.hca", "repro.iba.packet"),
    "auth": ("repro.core.auth", "repro.core.keymgmt", "repro.core.fastmac",
             "repro.crypto", "repro.iba.crc"),
    "traffic": ("repro.sim.traffic", "repro.core.attacks"),
    "enforcement": ("repro.core.enforcement", "repro.core.bloom",
                    "repro.iba.subnet_manager"),
    "metrics": ("repro.sim.metrics",),
    "build": ("repro.iba.topology", "repro.sim.runner"),
    "shard": ("repro.sim.shard", "repro.sim.partition"),
}

UNATTRIBUTED = "unattributed"
LAYERS = tuple(LAYER_MODULES) + (UNATTRIBUTED,)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: (module, class, method, layer): nested spans on public entry points.
#: ``*PortFilter`` expands to every port-filter class of the module.
ENTRY_POINTS = (
    ("repro.iba.switch", "Switch", "receive", "switch"),
    ("repro.iba.arbiter", "VLArbiter", "pick", "switch"),
    ("repro.iba.link", "Link", "send", "link"),
    ("repro.iba.link", "Link", "return_credit", "link"),
    ("repro.iba.link", "Link", "schedule_credit", "link"),
    ("repro.iba.hca", "HCA", "submit", "hca"),
    ("repro.iba.hca", "HCA", "receive", "hca"),
    ("repro.core.enforcement", "*PortFilter", "process", "enforcement"),
    ("repro.core.enforcement", "*PortFilter", "register_invalid", "enforcement"),
    ("repro.core.auth", "IcrcAuthService", "prepare", "auth"),
    ("repro.core.auth", "IcrcAuthService", "verify", "auth"),
    ("repro.core.auth", "MacAuthService", "prepare", "auth"),
    ("repro.core.auth", "MacAuthService", "verify", "auth"),
    ("repro.iba.subnet_manager", "SubnetManager", "submit_trap", "enforcement"),
    ("repro.sim.metrics", "MetricsCollector", "record_delivery", "metrics"),
    ("repro.sim.metrics", "MetricsCollector", "record_drop", "metrics"),
)

#: Functions patched where ``repro.sim.runner`` looks them up.
RUNNER_FUNCTIONS = (
    ("build_experiment", "build"),
    ("build_fabric", "build"),
    ("install_enforcement", "enforcement"),
)


def layer_of_module(module: str | None) -> str:
    """The layer a module belongs to (``unattributed`` when none)."""
    if module:
        for layer, prefixes in LAYER_MODULES.items():
            for prefix in prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    return layer
    return UNATTRIBUTED


class SpanRecorder:
    """Span stack plus per-layer self-time and per-name call counters.

    *clock* is injectable so the span arithmetic can be tested on a
    synthetic call tree.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: open spans: [layer index, start, time covered by children]
        self.stack: list[list] = []
        self.self_s = [0.0] * len(LAYERS)
        #: span name -> [calls, inclusive seconds]
        self.calls: dict[str, list] = {}
        #: largest ``Engine.pending_count`` seen after a schedule call
        self.pending_peak = 0
        #: per-callback records: [name, layer index, fires]
        self.callbacks: list[list] = []
        self._callback_index: dict = {}

    # --- span primitives ----------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        """*fn* inside a span of *layer*, counted under *name*."""
        layer_idx = _INDEX[layer]
        counter = self.calls.setdefault(name, [0, 0.0])
        stack = self.stack
        self_s = self.self_s
        clock = self.clock

        def spanned(*args, **kwargs):
            frame = [layer_idx, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                self_s[layer_idx] += dur - frame[2]
                counter[0] += 1
                counter[1] += dur
                if stack:
                    stack[-1][2] += dur

        spanned.__wrapped__ = fn
        spanned.__name__ = getattr(fn, "__name__", name)
        return spanned

    def callback_key(self, fn) -> int:
        """Index of *fn*'s callback record (one per underlying function)."""
        func = getattr(fn, "__func__", fn)
        key = self._callback_index.get(func)
        if key is None:
            module = getattr(func, "__module__", None)
            name = f"{module}.{getattr(func, '__qualname__', repr(func))}"
            key = len(self.callbacks)
            self.callbacks.append([name, _INDEX[layer_of_module(module)], 0])
            self._callback_index[func] = key
        return key

    def make_trampoline(self):
        """The function scheduled in place of every callback: it runs the
        callback inside a span of the callback's layer."""
        stack = self.stack
        self_s = self.self_s
        clock = self.clock
        records = self.callbacks

        def fire(key, fn, *args):
            record = records[key]
            record[2] += 1
            layer_idx = record[1]
            frame = [layer_idx, clock(), 0.0]
            stack.append(frame)
            try:
                fn(*args)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                self_s[layer_idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return fire

    # --- installation --------------------------------------------------------

    def install(self) -> list:
        """Patch ``repro`` at class level; returns undo records for
        :func:`uninstall`.  Call before the fabric is built."""
        import importlib

        from repro.sim import runner
        from repro.sim.engine import Engine

        undo: list = []

        def patch(owner, attr, value) -> None:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for module_name, class_name, method, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name.startswith("*"):
                classes = [c for n, c in vars(module).items()
                           if isinstance(c, type) and n.endswith(class_name[1:])
                           and c.__module__ == module_name]
            else:
                classes = [getattr(module, class_name)]
            for cls in classes:
                if method in cls.__dict__:
                    patch(cls, method, self.wrap(cls.__dict__[method], layer,
                                                 f"{cls.__name__}.{method}"))

        for name, layer in RUNNER_FUNCTIONS:
            patch(runner, name, self.wrap(getattr(runner, name), layer, name))

        fire = self.make_trampoline()
        key_of = self.callback_key
        recorder = self

        def scheduling(orig, name):
            # the scheduling call itself is the engine layer's cost
            timed = self.wrap(orig, "engine", f"Engine.{name}")

            def schedule(engine, when, fn, *args, priority=0):
                if fn is fire:  # re-entry, e.g. schedule_pooled -> schedule
                    return timed(engine, when, fn, *args, priority=priority)
                result = timed(engine, when, fire, key_of(fn), fn, *args,
                               priority=priority)
                depth = engine.pending_count
                if depth > recorder.pending_peak:
                    recorder.pending_peak = depth
                return result

            return schedule

        for name in ("schedule", "schedule_at", "schedule_pooled"):
            patch(Engine, name, scheduling(Engine.__dict__[name], name))
        patch(Engine, "run", self.wrap(Engine.__dict__["run"], "engine", "Engine.run"))
        return undo

    def wrap_link_callbacks(self, fabric) -> None:
        """Span every link's ``on_free``/``on_credit``, charged to the
        layer of the component that installed it (switch pump or HCA
        injector)."""
        for link in fabric.all_links():
            for attr in ("on_free", "on_credit"):
                fn = getattr(link, attr)
                if fn is None or hasattr(fn, "__wrapped__"):
                    continue
                layer = layer_of_module(getattr(fn, "__module__", None))
                setattr(link, attr, self.wrap(fn, layer, f"{layer}.link_{attr}"))

    # --- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals (JSON-able)."""
        return {
            "self_s": dict(zip(LAYERS, self.self_s)),
            "calls": {k: list(v) for k, v in self.calls.items()},
            "callbacks": [list(r) for r in self.callbacks],
            "pending_peak": self.pending_peak,
        }


def uninstall(undo: list) -> None:
    """Reverse :meth:`SpanRecorder.install`."""
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
