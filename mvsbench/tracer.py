"""Outside-in span tracer for the mvsgeo benchmark.

The tracer wraps public functions of the mvsgeo modules from the
benchmark's side; nothing in the package changes.  A function is rebound
in every loaded mvsgeo module that holds it (the defining module and each
module that imported it by name), so calls made through any of those
names are seen.  Spans are kept in memory, one list per thread, each with
the index of its parent span on the same thread.  A layer's self time is
its duration minus the time its children on the same thread cover; work
handed to pool threads does not count as a child of the caller.
"""

import resource
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    thread: int
    parent: int | None
    tag: int
    start: float = 0.0
    end: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    counters(args, kwargs, result) returns a dict of numbers stored on the
    span; span_name(args, kwargs) names the span per call (used to split
    cli.main by subcommand); only_in restricts rebinding to the named
    modules; track_rusage records the rise of the process's peak RSS and
    the process's minor page faults during the call.
    """

    module: str
    func: str
    counters: object = None
    span_name: object = None
    only_in: tuple = ()
    track_rusage: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('mvsgeo.')}.{self.func}"


class MissingTarget(RuntimeError):
    """A function the tracer must wrap does not exist in the package."""


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list[Span]] = []
        self._bound: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[Target, object, object]] = []
        self.tag = 0

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                local.tid = len(self.threads)
                self.threads.append(local.spans)
        return local

    def _wrap(self, target: Target, original):
        tracer = self
        default_name = target.name

        def wrapper(*args, **kwargs):
            local = tracer._thread_state()
            name = target.span_name(args, kwargs) if target.span_name else default_name
            stack = local.stack
            span = Span(name, local.tid, stack[-1] if stack else None, tracer.tag)
            stack.append(len(local.spans))
            local.spans.append(span)
            usage0 = resource.getrusage(resource.RUSAGE_SELF) if target.track_rusage else None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if usage0 is not None:
                usage = resource.getrusage(resource.RUSAGE_SELF)
                span.counters["maxrss_delta_kb"] = usage.ru_maxrss - usage0.ru_maxrss
                span.counters["minor_faults"] = usage.ru_minflt - usage0.ru_minflt
            if target.counters is not None:
                span.counters.update(target.counters(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation --------------------------------------------------------

    def prepare(self, targets) -> None:
        """Build a wrapper per target; raises MissingTarget for a missing function."""
        for target in targets:
            module = sys.modules.get(target.module)
            original = getattr(module, target.func, None) if module is not None else None
            if not callable(original):
                raise MissingTarget(f"{target.module}.{target.func} no longer exists")
            self._wrappers.append((target, original, self._wrap(target, original)))

    def install(self) -> None:
        if self._bound:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mvsgeo" or n.startswith("mvsgeo.")]
        for target, original, wrapper in self._wrappers:
            for module in modules:
                if target.only_in and module.__name__ not in target.only_in:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    # -- aggregation ---------------------------------------------------------

    def per_tag(self) -> dict:
        """{tag: {span name: {"calls", "s", "self_s", counter sums...}}}."""
        out: dict = {}
        for spans in self.threads:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span.parent is not None:
                    child_time[span.parent] += span.end - span.start
            for span, covered in zip(spans, child_time):
                stats = out.setdefault(span.tag, {}).setdefault(
                    span.name, {"calls": 0, "s": 0.0, "self_s": 0.0}
                )
                dur = span.end - span.start
                stats["calls"] += 1
                stats["s"] += dur
                stats["self_s"] += dur - covered
                for key, value in span.counters.items():
                    stats[key] = stats.get(key, 0) + value
        return out

    def first_span(self, name: str) -> Span | None:
        found = [s for spans in self.threads for s in spans if s.name == name]
        return min(found, key=lambda s: s.start) if found else None

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "thread": s.thread, "parent": s.parent, "tag": s.tag,
             "start": s.start, "end": s.end, "counters": s.counters}
            for spans in self.threads for s in spans
        ]
