"""Per-layer span tracer for the benchmark's traced run.

The program itself carries no spans.  ``Tracer.install`` wraps each
layer's public functions from the outside: a module-level function is
replaced in its defining module *and* at every ``repro.*`` import site
that bound it by name (``repro.api.compile`` imports ``replay_chunk``,
``draw_times``, ``pcg64_states`` ... that way); a method is replaced on
its class and on every subclass that overrides it (the inverse samplers
each override ``transform_inplace``).  ``install`` returns the patched
sites so a self-test can prove that nothing was missed.

Each wrapped call records one span ``(id, layer, name, start, end,
parent id, tag)`` in memory; the parent is the innermost open span on
the same thread, or the root span that covers the whole traced region.
A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children, so the per-layer self
times plus the root's own self time add up to the root's duration.
Counters are taken at the same boundaries, after the span closes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROOT_ID = 0


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(int)
        self.sites: Dict[str, List[str]] = {}
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()
        self._root_start: Optional[float] = None
        self._root_end: Optional[float] = None
        #: spans and counts are kept only between start() and stop()
        self.recording = False
        # per job id: submit and first chunk start, for the queue wait
        self.submitted: Dict[str, float] = {}
        self.first_chunk: Dict[str, float] = {}

    # -- spans -------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.tag = ""
        return local

    def set_tag(self, tag: str) -> None:
        """Label every span this thread opens from now on."""
        self._state().tag = tag

    def current_tag(self) -> str:
        return self._state().tag

    def start(self) -> None:
        """Open the root span: the traced region starts now."""
        self._root_start = time.perf_counter()
        self.recording = True

    def stop(self) -> None:
        self.recording = False
        self._root_end = time.perf_counter()

    def wrap(self, layer: str, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        spans = self.spans
        ids = self._ids
        state = self._state
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            local = state()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else ROOT_ID
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, layer, name, start, end, parent,
                              local.tag))
            if after is not None:
                try:
                    after(self, counts, args, kwargs, result, start)
                except Exception:  # noqa: BLE001 - never alter the program
                    counts["trace.hook_errors"] += 1
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, layer: str, module_name: str, attr: str,
                       after: Optional[Callable] = None) -> List[str]:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        traced = self.wrap(layer, f"{module_name}.{attr}", original, after)
        return _rebind(original, traced)

    def patch_method(self, layer: str, module_name: str, qualname: str,
                     after: Optional[Callable] = None) -> List[str]:
        module = importlib.import_module(module_name)
        class_name, method = qualname.split(".")
        base = getattr(module, class_name)
        sites = []
        for cls in [base] + _subclasses(base):
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            name = f"{cls.__module__}.{cls.__name__}.{method}"
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(layer, name, raw.__func__,
                                                after))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(layer, name, raw.__func__,
                                                 after))
            else:
                patched = self.wrap(layer, name, raw, after)
            setattr(cls, method, patched)
            sites.append(name)
        return sites

    def install(self) -> Dict[str, List[str]]:
        """Wrap every target of :data:`LAYERS`; returns target -> sites."""
        _import_all()
        for layer, targets in LAYERS.items():
            for module_name, attr, after in targets:
                key = f"{module_name}.{attr}"
                if "." in attr:
                    sites = self.patch_method(layer, module_name, attr, after)
                else:
                    sites = self.patch_function(layer, module_name, attr,
                                                after)
                self.sites[key] = sites
        return self.sites

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """(layer -> self seconds, layer -> span count, root self seconds)."""
        duration = {span[0]: span[4] - span[3] for span in self.spans}
        child = defaultdict(float)
        for sid, _layer, _name, start, end, parent, _tag in self.spans:
            # a span whose parent never closed (its thread was cut off)
            # counts against the root
            child[parent if parent in duration else ROOT_ID] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for sid, layer, _name, _start, _end, _parent, _tag in self.spans:
            self_s[layer] += duration[sid] - child[sid]
            calls[layer] += 1
        root_self = self.root_wall() - child[ROOT_ID]
        return dict(self_s), dict(calls), root_self

    def root_wall(self) -> float:
        if self._root_start is None:
            return 0.0
        end = self._root_end if self._root_end is not None \
            else time.perf_counter()
        return end - self._root_start

    def dump(self, path: str) -> None:
        """Write spans (one JSON array per line) and counters to ``path``."""
        self_s, calls, root_self = self.layer_times()
        with open(path, "w") as out:
            json.dump({"root_wall_s": self.root_wall(),
                       "root_self_s": root_self,
                       "self_s": self_s, "calls": calls,
                       "counts": dict(self.counts),
                       "queue_wait_s": self.queue_waits(),
                       "sites": self.sites}, out)
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")

    def queue_waits(self) -> List[float]:
        """Per job: seconds from its submit to its first chunk start."""
        return [self.first_chunk[job] - self.submitted[job]
                for job in sorted(self.first_chunk)
                if job in self.submitted]


def load_dump(path: str) -> Dict:
    """The summary line of a :meth:`Tracer.dump` file."""
    with open(path) as handle:
        return json.loads(handle.readline())


def _repro_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]


def _rebind(original: Callable, replacement: Callable) -> List[str]:
    """Point every ``repro.*`` reference to ``original`` at ``replacement``.

    Covers module globals (``from x import f`` binds a second name) and
    default arguments of module-level functions and methods
    (``InlineDispatcher.__init__`` defaults ``chunk_fn=run_chunk_task``,
    which no module-global patch would reach).
    """
    sites = []
    for name, mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                sites.append(f"{name}.{key}")
            functions = [(key, value)]
            if isinstance(value, type) and value.__module__ == name:
                functions = [(f"{key}.{k}", v)
                             for k, v in vars(value).items()]
            for label, fn in functions:
                fn = getattr(fn, "__func__", fn)
                defaults = getattr(fn, "__defaults__", None)
                if defaults and any(d is original for d in defaults):
                    fn.__defaults__ = tuple(
                        replacement if d is original else d
                        for d in defaults)
                    sites.append(f"{name}.{label}:default")
    return sites


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- counter hooks -----------------------------------------------------------
# Signature: hook(tracer, counts, args, kwargs, result, span start); for a
# method, args[0] is the instance (or the class).  A hook that raises is
# counted in ``trace.hook_errors`` instead of reaching the program.


def _kernel(tracer, counts, args, kwargs, result, start) -> None:
    times = args[0] if args else kwargs["times"]
    counts["sim.kernel.trials"] += len(result.overflow)
    counts["sim.kernel.overflow_trials"] += int(result.overflow.sum())
    counts["sim.kernel.tensor_mb"] = max(counts["sim.kernel.tensor_mb"],
                                         times.nbytes / 1e6)


def _sampled(tracer, counts, args, kwargs, result, start) -> None:
    counts["sim.sampler.values"] += int(getattr(result, "size", 0))


def _extended(tracer, counts, args, kwargs, result, start) -> None:
    counts["sim.sampler.extend_calls"] += 1


def _frame_engines(tracer, counts, args, kwargs, result, start) -> None:
    engines = result.column("engine")
    for engine in ("kernel", "fast", "event"):
        counts[f"api.compile.trials_{engine}"] += int(
            (engines == engine).sum())


def _npz_out(tracer, counts, args, kwargs, result, start) -> None:
    counts["sim.frame.npz_bytes"] += len(result)


def _npz_in(tracer, counts, args, kwargs, result, start) -> None:
    blob = args[1] if len(args) > 1 else kwargs["blob"]   # args[0]: cls
    counts["sim.frame.npz_bytes"] += len(blob)


def _sweep_cells(tracer, counts, args, kwargs, result, start) -> None:
    counts["api.sweep.cells"] += len(result.frames)


def _store_put(tracer, counts, args, kwargs, result, start) -> None:
    store, key = args[0], args[1]
    counts["serve.store.puts"] += 1
    if result:
        counts["serve.store.bytes_written"] += os.path.getsize(
            store.object_path(key))


def _store_read(tracer, counts, args, kwargs, result, start) -> None:
    counts["serve.store.gets"] += 1
    if result is not None:
        counts["serve.store.bytes_read"] += len(result)


def _state_save(tracer, counts, args, kwargs, result, start) -> None:
    counts["serve.job.state_saves"] += 1


def _state_load(tracer, counts, args, kwargs, result, start) -> None:
    counts["serve.job.state_loads"] += 1


def _chunk_done(tracer, counts, args, kwargs, result, start) -> None:
    if result["computed"]:
        counts["serve.executor.chunks_computed"] += 1


def _job_ran(tracer, counts, args, kwargs, result, start) -> None:
    job = args[1] if len(args) > 1 else kwargs["job"]
    counts["serve.executor.chunks_planned"] += len(job.chunks())


def _submitted(tracer, counts, args, kwargs, result, start) -> None:
    counts["serve.server.requests"] += 1
    tracer.submitted.setdefault(result["job_id"], start)


def _request(tracer, counts, args, kwargs, result, start) -> None:
    counts["serve.server.requests"] += 1


def _polled(tracer, counts, args, kwargs, result, start) -> None:
    counts["serve.server.requests"] += 1
    counts["serve.server.status_polls"] += 1


def _job_context(run, tracer: Tracer):
    """Wrap ``JobRunner.run`` to tag its thread with the job id."""

    @functools.wraps(run)
    def tagged(self, job, *args, **kwargs):
        previous = tracer.current_tag()
        tracer.set_tag(job.job_id)
        try:
            return run(self, job, *args, **kwargs)
        finally:
            tracer.set_tag(previous)

    return tagged


def _chunk_started(run_chunk_task, tracer: Tracer):
    """Wrap ``run_chunk_task`` to note its job's first chunk start."""

    @functools.wraps(run_chunk_task)
    def noted(payload):
        job = tracer.current_tag()
        if job and tracer.recording:
            tracer.first_chunk.setdefault(job, time.perf_counter())
        return run_chunk_task(payload)

    return noted


#: layer -> [(module, function or Class.method, counter hook)].  The
#: layer names are the repo's module names.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "sim.kernel": [("repro.sim.kernel", "replay_chunk", _kernel)],
    "sim.fast": [
        ("repro.sim.fast", "replay", None),
        ("repro.sim.fast", "replay_lean", None),
        # the optimized protocol's replay, which the fast chunk calls
        # directly instead of going through replay()
        ("repro.sim.fast", "_replay_optimized", None),
    ],
    "sim.sampler": [
        ("repro.sim.sampler", "draw_times", None),
        ("repro.sim.sampler", "extend_times", _extended),
        ("repro.sim.sampler", "draw_starts", None),
        ("repro.sim.sampler", "InverseSampler.transform", _sampled),
        ("repro.sim.sampler", "InverseSampler.transform_inplace", _sampled),
    ],
    "sim.engine": [("repro.sim.engine", "NoisyEngine.run", None)],
    "api.compile": [
        ("repro.api.compile", "run_trials_frame", _frame_engines),
        ("repro.api.compile", "replay_schedule", None),
    ],
    "seedhash": [
        ("repro._seedhash", "pcg64_states", None),
        ("repro._seedhash", "block_spawn_keys", None),
    ],
    "sim.frame": [
        ("repro.sim.frame", "FrameBuilder.append_fast", None),
        ("repro.sim.frame", "FrameBuilder.append_result", None),
        ("repro.sim.frame", "FrameBuilder.append_block", None),
        ("repro.sim.frame", "FrameBuilder.build", None),
        ("repro.sim.frame", "ResultFrame.to_npz_bytes", _npz_out),
        ("repro.sim.frame", "ResultFrame.from_npz_bytes", _npz_in),
        ("repro.sim.frame", "ResultFrame.concat", None),
    ],
    "analysis.aggregate": [
        ("repro.analysis.aggregate", "Mean.__call__", None),
        ("repro.analysis.aggregate", "MeanCI.__call__", None),
        ("repro.analysis.aggregate", "RunningCellAggregate.fold_frame",
         None),
    ],
    "api.sweep": [("repro.api.sweep", "run_sweep", _sweep_cells)],
    "serve.store": [
        ("repro.serve.store", "ResultStore.put", _store_put),
        ("repro.serve.store", "ResultStore.get", None),
        ("repro.serve.store", "ResultStore.get_bytes", _store_read),
        ("repro.serve.store", "ResultStore.get_valid_bytes", None),
        ("repro.serve.store", "ResultStore.claim", None),
        ("repro.serve.store", "ResultStore.release", None),
        ("repro.serve.store", "ResultStore.renew", None),
    ],
    "serve.job": [
        ("repro.serve.job", "JobState.save", _state_save),
        ("repro.serve.job", "JobState.load", _state_load),
        ("repro.serve.job", "SweepJob.save", None),
    ],
    "serve.executor": [
        ("repro.serve.executor", "run_chunk_task", _chunk_done),
        ("repro.serve.executor", "JobRunner.run", _job_ran),
    ],
    "serve.server": [
        ("repro.serve.server", "SweepService.submit", _submitted),
        ("repro.serve.server", "SweepService.status", _polled),
        ("repro.serve.server", "SweepService.result_manifest", _request),
    ],
}


def _import_all() -> None:
    for module in ("repro", "repro.api", "repro.api.compile",
                   "repro.api.sweep", "repro.sim.differential",
                   "repro.experiments.figure1", "repro.serve.server",
                   "repro.serve.executor", "repro.serve.client"):
        importlib.import_module(module)


def install(tracer: Tracer) -> Dict[str, List[str]]:
    """Wrap every layer target, plus the serve job bookkeeping.

    ``JobRunner.run`` tags its thread with the job id and
    ``run_chunk_task`` notes each job's first chunk start; both sit
    *outside* the timed spans, so the bookkeeping costs no layer time.
    """
    sites = tracer.install()
    import repro.serve.executor as executor

    executor.JobRunner.run = _job_context(executor.JobRunner.run, tracer)
    traced = executor.run_chunk_task
    _rebind(traced, _chunk_started(traced, tracer))
    return sites
