"""Outside-in layer tracing for the session benchmark.

The benchmark never edits ``src/``.  Instead, :func:`install` replaces the
public entry points of every ``repro.*`` layer with timing wrappers for
the duration of a traced round, and :meth:`Installation.uninstall` puts
the originals back.  Wrappers must be installed *before* a site is built, because
``GridSite`` binds service methods into its container at construction.

Each wrapped call pushes a frame on one shared stack.  A frame's *self*
time is its wall time minus the wall time of the wrapped calls nested
inside it, so the self times of all layers add up to the traced wall
time minus what ran outside any frame (reported as ``unattributed_s``).

Generators are timed per resume, not per call: a wrapped call that
returns a generator hands back a proxy that opens a frame around every
``send``/``throw``.  Generators handed to ``Environment.process`` (and to
the tracer's ``wrap``/``trace_gen``) are proxied too, attributed to the
module that defined the generator function, so a nested ``run()``
generator of ``grid.transfer`` counts as ``grid.transfer`` even though
the simulation kernel is what resumes it.  Every proxied generator is a
span: layer, name, parent span, sim-clock start/end and wall self time.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter
GeneratorType = types.GeneratorType

#: Layer of code outside ``repro`` (the benchmark's own scenario code).
BENCH_LAYER = "bench"


def layer_of(module: str) -> str:
    """Layer name of a module: ``repro.grid.network`` -> ``grid.network``.

    ``grid`` and ``services`` split per module, ``aida`` keeps its codec
    and tree apart from the histogram classes, every other package is one
    layer.  The service container's base class lives in
    ``services.envelope`` and counts as ``services.container``.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return BENCH_LAYER
    package = parts[1]
    if package in ("grid", "services") and len(parts) > 2:
        layer = f"{package}.{parts[2]}"
        return "services.container" if layer == "services.envelope" else layer
    if package == "aida" and len(parts) > 2 and parts[2] in ("codec", "tree"):
        return f"aida.{parts[2]}"
    return package


# -- hooks: count work at the boundary where it happens ----------------------
# A hook is ``hook(recorder, args, kwargs, result)``; it runs after the call
# and adds to named counters.


def _count(name: str) -> Callable:
    def hook(rec, args, kwargs, result):
        rec.counters[name] += 1

    return hook


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _network_transfer(rec, args, kwargs, result):
    rec.counters["grid.network.transfers"] += 1
    rec.counters["grid.network.mb_moved"] += _arg(args, kwargs, 3, "size_mb")


def _split_parts(rec, args, kwargs, result):
    rec.counters["services.splitter.parts"] += _arg(args, kwargs, 2, "n_parts")


def _generated(rec, args, kwargs, result):
    rec.counters["dataset.events_generated"] += len(result)


def _plan_sources(rec, args, kwargs, result):
    parts = len(result.sources)
    rec.counters["replica.parts_planned"] += parts
    rec.counters["replica.parts_hit"] += parts - len(result.missing)


def _chunk(rec, args, kwargs, result):
    rec.counters["engine.chunks"] += 1
    rec.counters["engine.events"] += result.events


def _codec(rec, args, kwargs, result):
    rec.counters["aida.codec.arrays"] += 1
    array = result if hasattr(result, "nbytes") else args[0]
    rec.counters["aida.codec.bytes"] += int(getattr(array, "nbytes", 0))


def _migration(rec, args, kwargs, result):
    rec.counters["federation.migrations"] += 1
    rec.counters["federation.wan_mb"] += _arg(args, kwargs, 4, "size_mb")


# A *before* hook is ``hook(recorder, args, kwargs)``; it runs before the
# call, for counters that depend on state the call consumes.


def _flat_merge(rec, args, kwargs):
    manager, session_id = args[0], _arg(args, kwargs, 1, "session_id")
    if manager._dirty_paths.get(session_id):
        rec.counters["services.aida_manager.merges"] += 1


def _tier_merge(rec, args, kwargs):
    if args[0].dirty_engines:
        rec.counters["services.aida_manager.merges"] += 1


#: ``(module, class or None, names, hooks)``.  ``names`` of ``"*"`` means
#: every public function defined in the class body; module-level entries
#: name functions.  Private names appear only where a counter needs them.
#: ``aida.tree.merges`` counts every fold of one AIDA object into another
#: (``+=``), wherever the fold happens.
ENTRY_POINTS: List[Tuple[str, Optional[str], Any, Dict[str, Callable]]] = [
    # ``Environment.run`` stays unwrapped: the timed phase steps the kernel
    # from the benchmark's own loop, and that loop is what
    # ``unattributed_s`` shows.
    ("repro.sim.kernel", "Environment", ["step", "process"],
     {"step": _count("sim.events")}),
    ("repro.sim.kernel", "Process", ["interrupt"],
     {"interrupt": _count("sim.interrupts")}),
    ("repro.sim.resources", "Resource", "*", {}),
    ("repro.sim.resources", "PriorityResource", "*", {}),
    ("repro.sim.resources", "Store", "*", {}),
    ("repro.sim.resources", "Container", "*", {}),
    ("repro.grid.network", "Network", "*",
     {"route": _count("grid.network.routes"), "transfer": _network_transfer}),
    ("repro.grid.network", None, ["maxmin_allocate"],
     {"maxmin_allocate": _count("grid.network.maxmin_solves")}),
    ("repro.grid.transfer", "GridFTPService", "*",
     {"transfer_file": _count("grid.transfer.files")}),
    ("repro.grid.gram", "GramGatekeeper", "*",
     {"submit": _count("grid.gram.jobs")}),
    ("repro.grid.scheduler", "BatchScheduler", "*", {}),
    ("repro.grid.admission", "AdmissionController", "*", {}),
    ("repro.grid.nodes", "Node", "*", {}),
    ("repro.grid.nodes", "StorageElement", "*", {}),
    ("repro.grid.nodes", "ComputeElement", "*", {}),
    ("repro.grid.security", "AuthorizationService", "*", {}),
    ("repro.grid.security", "CertificateAuthority", "*", {}),
    ("repro.services.envelope", "ServiceContainer", "*",
     {"call": _count("services.container.calls")}),
    ("repro.services.container", "AsyncServiceContainer", "*", {}),
    ("repro.services.session", "SessionService", "*", {}),
    ("repro.services.session", "EngineHost", "*", {}),
    ("repro.services.control", "ControlService", "*", {}),
    ("repro.services.splitter", "SplitterService", "*",
     {"split_seconds_for": _split_parts}),
    ("repro.services.catalog", "DatasetCatalogService", "*", {}),
    ("repro.services.locator", "LocatorService", "*", {}),
    ("repro.services.registry", "WorkerRegistryService", "*", {}),
    ("repro.services.codeloader", "ManagingClassLoaderService", "*",
     {"stage": _count("services.codeloader.stages"),
      "reload": _count("services.codeloader.stages")}),
    ("repro.services.content", "ContentStore", "*", {}),
    ("repro.services.aida_manager", "AIDAManagerService",
     "*", {"submit_snapshot": _count("services.aida_manager.snapshots")}),
    ("repro.services.aida_manager", "AIDAManagerService",
     ["_recompute_merged"], {}),
    ("repro.services.combiner", "MergeTree", "*", {}),
    ("repro.services.combiner", "CombinerNode", "*", {}),
    ("repro.replica.selector", "ReplicaSelector", "*",
     {"estimate": _count("replica.estimates")}),
    ("repro.replica.manager", "ReplicaManager", "*",
     {"plan_sources": _plan_sources}),
    ("repro.replica.catalog", "ReplicaCatalog", "*", {}),
    ("repro.replica.cache", "NodeCache", "*", {}),
    ("repro.dataset.generator", "ILCEventGenerator", "*",
     {"generate": _generated}),
    ("repro.dataset.events", "EventBatch", ["slice", "concatenate"], {}),
    ("repro.engine.engine", "AnalysisEngine", "*",
     {"process_chunk": _chunk}),
    ("repro.engine.sandbox", None, ["load_analysis"], {}),
    ("repro.engine.sandbox", "CodeBundle", "*", {}),
    ("repro.aida.codec", None, ["encode_array", "decode_array"],
     {"encode_array": _codec, "decode_array": _codec}),
    ("repro.aida.tree", "ObjectTree",
     ["merge_from", "to_dict", "from_dict", "copy"], {}),
    *[
        (module, cls, ["__iadd__"], {"__iadd__": _count("aida.tree.merges")})
        for module, cls in (
            ("repro.aida.hist1d", "Histogram1D"),
            ("repro.aida.hist2d", "Histogram2D"),
            ("repro.aida.profile", "Profile1D"),
            ("repro.aida.cloud", "Cloud1D"),
            ("repro.aida.cloud", "Cloud2D"),
            ("repro.aida.ntuple", "NTuple"),
        )
    ],
    ("repro.resilience.journal", "SessionJournal", "*",
     {"append": _count("resilience.journal_records")}),
    ("repro.resilience.journal", "DurableStore", "*", {}),
    ("repro.resilience.checkpoint", "CheckpointStore", "*",
     {"write": _count("resilience.checkpoints")}),
    ("repro.resilience.heartbeat", "HeartbeatMonitor", "*", {}),
    ("repro.resilience.retry", None, ["retrying"], {}),
    ("repro.federation.broker", "SessionBroker", "*",
     {"rank": _count("federation.broker_ranks")}),
    ("repro.federation.policy", "ReplicationPolicy", "*", {}),
    ("repro.federation.catalog", "FederatedCatalog", "*", {}),
    ("repro.federation.topology", "Federation", "*",
     {"note_migration": _migration}),
    ("repro.federation.client", "FederatedClient", "*", {}),
    ("repro.obs.trace", "Tracer", "*", {"start": _count("obs.spans")}),
    ("repro.obs.trace", "Span", "*", {}),
    ("repro.obs.events", "EventLog", "*", {"emit": _count("obs.events")}),
    ("repro.obs.metrics", "MetricsRegistry", "*", {}),
    ("repro.obs.metrics", "Counter", "*", {}),
    ("repro.obs.metrics", "Gauge", "*", {}),
    ("repro.obs.metrics", "Histogram", "*", {}),
    ("repro.obs.slo", "SLOTracker", "*", {}),
    ("repro.obs.anomaly", "AnomalyMonitor", "*", {}),
    ("repro.client.client", "IPAClient", "*",
     {"poll": _count("client.polls")}),
    ("repro.client.plugins", "GridProxyPlugin", "*", {}),
    ("repro.client.plugins", "DatasetCatalogPlugin", "*", {}),
    ("repro.client.plugins", "RemoteDataPlugin", "*", {}),
]

#: Before hooks by entry: a merge counts only when it has dirty paths
#: (flat manager) or dirty engines (combiner tier) to re-fold; polls that
#: find nothing new return the cached tree and are not merges.
BEFORE_HOOKS = {
    ("repro.services.aida_manager", "AIDAManagerService._recompute_merged"):
        _flat_merge,
    ("repro.services.combiner", "MergeTree.refold"): _tier_merge,
}
#: Entries whose generator argument is re-attributed to the module that
#: defined it (argument index), so a proxy in one layer does not swallow
#: the time of the generator it drives.
GENERATOR_ARGS = {
    ("repro.sim.kernel", "Environment.process"): 1,
    ("repro.obs.trace", "Tracer.wrap"): 2,
    ("repro.obs.trace", "Tracer.trace_gen"): 2,
}
#: The entry whose calls tell the recorder which simulation clock is live.
PROCESS_KEY = ("sim", "Environment.process")


class Recorder:
    """Frames, per-entry totals, counters and spans of one traced round."""

    def __init__(self) -> None:
        #: Open frames: ``[folded_path, layer, child_wall_s]``.
        self.stack: List[list] = []
        #: Per entry key: ``[calls, resumes, self_s, sim_s]``.
        self.entries: Dict[Tuple[str, str], list] = defaultdict(
            lambda: [0, 0, 0.0, 0.0]
        )
        self.counters: Dict[str, float] = defaultdict(float)
        #: Folded stack (``layer;layer;...``) -> self seconds.
        self.folded: Dict[str, float] = defaultdict(float)
        #: ``[span_id, parent_id, layer, name, sim_start, sim_end, self_s]``.
        self.spans: List[list] = []
        self.current_span: Optional[list] = None
        #: Index of the first span of the timed phase (see :meth:`mark`).
        self.first_span = 0
        #: Simulation environment spans read their clock from; the
        #: ``Environment.process`` wrapper keeps it current.
        self.env = None

    def now(self) -> float:
        env = self.env
        return env.now if env is not None else 0.0

    def mark(self) -> None:
        """Start the timed phase: zero totals and counters in place.

        Proxies of generators started earlier (a site's background loops)
        hold references to their entry totals, so totals are zeroed, not
        replaced; their spans stay in :attr:`spans` before
        :attr:`first_span`.
        """
        for stats in self.entries.values():
            stats[:] = [0, 0, 0.0, 0.0]
        self.counters.clear()
        self.folded.clear()
        self.first_span = len(self.spans)

    # -- aggregation ---------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (layer, _name), stats in self.entries.items():
            out[layer] += stats[2]
        return dict(out)

    def entry_self(self, layer: str, name: str) -> float:
        stats = self.entries.get((layer, name))
        return stats[2] if stats else 0.0

    def span_durations(self, layer: str, names) -> List[float]:
        wanted = set(names)
        return [
            span[5] - span[4]
            for span in self.spans[self.first_span:]
            if span[2] == layer and span[3] in wanted and span[5] is not None
        ]

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, parent, layer, name, start, end, own in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "name": name,
                            "sim_start": start,
                            "sim_end": end,
                            "self_s": own,
                        }
                    )
                    + "\n"
                )


def _traced_generator(rec: Recorder, gen, key: Tuple[str, str]):
    """Proxy *gen*: one frame per resume, one span for its lifetime."""
    layer = key[0]
    stats = rec.entries[key]
    parent = rec.current_span
    span = [len(rec.spans) + 1, parent[0] if parent else None, layer, key[1],
            rec.now(), None, 0.0]
    rec.spans.append(span)
    stack = rec.stack
    folded = rec.folded
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        top = stack[-1] if stack else None
        if top is None:
            path = layer
        elif top[1] == layer:
            path = top[0]
        else:
            path = top[0] + ";" + layer
        frame = [path, layer, 0.0]
        stack.append(frame)
        saved = rec.current_span
        rec.current_span = span
        finished = True
        started = perf_counter()
        try:
            if error is None:
                target = gen.send(value)
            else:
                pending, error = error, None
                target = gen.throw(pending)
            finished = False
        except StopIteration as stop:
            result = stop.value
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            rec.current_span = saved
            own = elapsed - frame[2]
            stats[1] += 1
            stats[2] += own
            span[6] += own
            folded[path] += own
            if stack:
                stack[-1][2] += elapsed
            if finished:
                span[5] = rec.now()
                stats[3] += span[5] - span[4]
        if finished:
            return result
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the proxied generator
            value, error = None, exc


_TRACED_CODE = _traced_generator.__code__


def _is_traced(gen) -> bool:
    return gen.gi_code is _TRACED_CODE


def _adopt_generator(rec: Recorder, gen):
    """Proxy a generator under the layer of the module that defined it."""
    if type(gen) is not GeneratorType or _is_traced(gen):
        return gen
    frame = gen.gi_frame
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    key = (layer_of(module), gen.gi_code.co_qualname)
    return _traced_generator(rec, gen, key)


def _make_wrapper(rec: Recorder, fn: Callable, key, hook, gen_arg,
                  before=None):
    layer = key[0]
    stats = rec.entries[key]
    stack = rec.stack
    folded = rec.folded

    sets_env = key == PROCESS_KEY

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sets_env:
            rec.env = args[0]
        if gen_arg is not None and len(args) > gen_arg:
            args = list(args)
            args[gen_arg] = _adopt_generator(rec, args[gen_arg])
        if before is not None:
            before(rec, args, kwargs)
        top = stack[-1] if stack else None
        if top is None:
            path = layer
        elif top[1] == layer:
            path = top[0]
        else:
            path = top[0] + ";" + layer
        frame = [path, layer, 0.0]
        stack.append(frame)
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            own = elapsed - frame[2]
            stats[0] += 1
            stats[2] += own
            folded[path] += own
            if stack:
                stack[-1][2] += elapsed
        if hook is not None:
            hook(rec, args, kwargs, result)
        if type(result) is GeneratorType and not _is_traced(result):
            result = _traced_generator(rec, result, key)
        return result

    return wrapper


def _public_functions(cls) -> List[str]:
    names = []
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if inspect.isfunction(value):
            names.append(name)
    return names


class Installation:
    """Wrappers currently patched in; :meth:`uninstall` restores originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


_MISSING = object()


def install(recorder: Recorder) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` around *recorder*."""
    inst = Installation(recorder)
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("repro.") and m is not None]
    for module_name, class_name, names, hooks in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is None:
            for name in names:
                original = getattr(module, name)
                key = (layer_of(module_name), name)
                wrapper = _make_wrapper(
                    recorder, original, key, hooks.get(name), None
                )
                # ``from x import f`` copies the binding: patch every copy.
                for other in modules:
                    if vars(other).get(name) is original:
                        inst._patch(other, name, wrapper)
            continue
        cls = getattr(module, class_name)
        selected = _public_functions(cls) if names == "*" else names
        for name in selected:
            raw = vars(cls)[name]
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            original = raw.__func__ if kind is not None else raw
            qualname = f"{class_name}.{name}"
            key = (layer_of(module_name), qualname)
            wrapper = _make_wrapper(
                recorder,
                original,
                key,
                hooks.get(name),
                GENERATOR_ARGS.get((module_name, qualname)),
                BEFORE_HOOKS.get((module_name, qualname)),
            )
            inst._patch(cls, name, kind(wrapper) if kind is not None else wrapper)
    # The sandbox resolves ``compile`` through its module globals, so a
    # module-level binding shadows the builtin for analysis code only.
    sandbox = importlib.import_module("repro.engine.sandbox")
    inst._patch(
        sandbox,
        "compile",
        _make_wrapper(
            recorder,
            builtins.compile,
            ("engine", "compile"),
            _count("engine.compiles"),
            None,
        ),
    )
    return inst
