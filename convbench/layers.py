"""Per-layer attribution from outside the program.

The traced run wraps the public functions below at run time; nothing
under ``src/`` changes.  Every wrapped call is a span on one shared
*timeline*: at each span boundary (any thread) the interval since the
previous boundary goes to the innermost open span of each thread that
has one, split evenly when several threads do, and to
``unattributed`` when none does.  So the layers' self times plus
``unattributed`` add up to the traced wall time exactly, by
construction, and a layer's self time excludes the wrapped layers it
calls.  While the timeline is paused, time is attributed to nothing
and left out of the wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

#: (layer name, module, attribute path) -- the public functions and
#: methods the traced run wraps.
LAYERS = (
    ("cost.predict", "repro.cost", "CostPredictor.predict"),
    ("engine.savepoint", "repro.network.database", "NetworkDatabase.savepoint"),
    ("engine.rollback", "repro.network.database", "NetworkDatabase.rollback"),
    ("cascade.reference_trace", "repro.strategies.cascade",
     "FallbackCascade.reference_trace"),
    ("cascade.make_strategy", "repro.strategies.cascade",
     "FallbackCascade.make_strategy"),
    ("programs.Interpreter.run", "repro.programs.interpreter", "Interpreter.run"),
    ("iotrace.diff", "repro.programs.iotrace", "IOTrace.diff"),
    ("strategies.rewrite.conversion_report", "repro.strategies.rewrite",
     "RewriteStrategy.conversion_report"),
    ("strategies.rewrite.run", "repro.strategies.rewrite", "RewriteStrategy.run"),
    ("strategies.emulation.run", "repro.strategies.emulation", "EmulationStrategy.run"),
    ("strategies.bridge.run", "repro.strategies.bridge", "BridgeStrategy.run"),
    ("batch.convert_one", "repro.batch", "convert_one"),
    ("batch.BatchCheckpoint.write", "repro.batch", "BatchCheckpoint.write"),
    ("batch.BatchCheckpoint.merge_shards", "repro.batch",
     "BatchCheckpoint.merge_shards"),
    ("jsonio.write_json_atomic", "repro.jsonio", "write_json_atomic"),
    ("jsonio.fsync_dir", "repro.jsonio", "fsync_dir"),
    ("parallel.WorkerPool.send", "repro.parallel", "WorkerPool.send"),
    # Process-wide, but on the coordinator only dispatch calls it: the
    # pool seed at spawn and every chunk of programs before ``send``.
    ("parallel.pickle.dumps", "repro.parallel", "pickle.dumps"),
    ("parallel.WorkerPool.receive", "repro.parallel", "WorkerPool.receive"),
    ("service.validate_submission", "repro.service.jobs", "validate_submission"),
    ("service.Job.persist", "repro.service.jobs", "Job.persist"),
    ("service.Job.emit", "repro.service.jobs", "Job.emit"),
    ("programs.parse_program", "repro.programs.parser", "parse_program"),
    ("restructure.restructure_database", "repro.restructure.translator",
     "restructure_database"),
    ("api.build_cascade", "repro.api", "build_cascade"),
    ("observe.merge_worker_trace", "repro.observe.merge", "merge_worker_trace"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)
UNATTRIBUTED = "unattributed"


class Timeline:
    """Exclusive attribution of wall time to the open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[int, list[str]] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.wall = 0.0
        self.paused = False
        self._last = clock()

    def _advance(self, now: float) -> None:
        open_tops = [stack[-1] for stack in self._stacks.values() if stack]
        elapsed = now - self._last
        self._last = now
        if self.paused:
            return
        self.wall += elapsed
        if not open_tops:
            self.self_s[UNATTRIBUTED] = self.self_s.get(UNATTRIBUTED, 0.0) + elapsed
            return
        part = elapsed / len(open_tops)
        for name in open_tops:
            self.self_s[name] = self.self_s.get(name, 0.0) + part

    def enter(self, name: str) -> None:
        with self._lock:
            self._advance(self.clock())
            self._stacks.setdefault(threading.get_ident(), []).append(name)
            if not self.paused:
                self.calls[name] = self.calls.get(name, 0) + 1

    def exit(self) -> None:
        with self._lock:
            self._advance(self.clock())
            self._stacks[threading.get_ident()].pop()

    def pause(self, paused: bool = True) -> None:
        with self._lock:
            self._advance(self.clock())
            self.paused = paused

    def close(self) -> tuple[float, dict[str, float], dict[str, int]]:
        """Attribute the tail; returns (wall, self times, calls)."""
        with self._lock:
            self._advance(self.clock())
            self.paused = True
            return self.wall, dict(self.self_s), dict(self.calls)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Installs the span wrappers and undoes them.

    Module-level functions are also replaced in every loaded ``repro``
    module that imported them by name (``from x import f``), so each
    call site reaches the wrapper.  ``observers`` maps a layer name to
    ``fn(args, kwargs, result)``, called after the span closes.
    """

    def __init__(self, timeline: Timeline, observers=None):
        self.timeline = timeline
        self.observers = observers or {}
        #: (owner, attribute, original, wrapper) for every call site.
        self._sites: list[tuple[object, str, object, object]] = []

    def install(self) -> "Instrumentation":
        if not self._sites:
            self._find_sites()
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._sites):
            setattr(owner, attr, original)

    def _find_sites(self) -> None:
        for name, module_name, path in LAYERS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._sites.append((owner, attr, original, wrapper))
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (module is owner or namespace is None
                        or not getattr(module, "__name__", "").startswith("repro")):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def _wrap(self, name: str, original):
        timeline = self.timeline
        observer = self.observers.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            timeline.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                timeline.exit()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper


def _status_kb(pid, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status``; 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Peak resident memory of the program, without the benchmark's own.

    Made before the benchmark builds its inputs.  ``exclude_since_start``
    then records how much resident memory the inputs took and resets
    this process's peak (``VmHWM``) to its current size, so the peak
    ``peak_mb`` reports is reached by set-up and jobs alone.  Workers
    are counted with their whole peak: ``note_workers`` before a pool
    closes keeps the largest total any one pool's workers reached.
    """

    def __init__(self):
        self.start_kb = _status_kb("self", "VmRSS")
        self.inputs_kb = 0
        self.workers_kb = 0

    def note_workers(self, pids) -> None:
        self.workers_kb = max(self.workers_kb,
                              sum(_status_kb(pid, "VmHWM") for pid in pids))

    def exclude_since_start(self) -> None:
        self.inputs_kb = max(0, _status_kb("self", "VmRSS") - self.start_kb)
        try:
            with open("/proc/self/clear_refs", "w") as clear:
                clear.write("5")
        except OSError:
            pass  # no reset: the inputs' own build peak stays in the figure

    def peak_mb(self) -> float:
        own_kb = _status_kb("self", "VmHWM")
        if own_kb == 0:
            import resource

            own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb - self.inputs_kb + self.workers_kb) / 1024.0


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
