"""Outside-in per-layer tracing from the benchmark's own code.

:func:`install` wraps each layer's public functions (nothing under ``src/``
changes).  Every wrapped call becomes a span: name, start and end in ns, its
parent span and its op id.  Stacks are thread-local, because ``tlp-aserve``
runs requests on executor threads.  A layer's self time is its spans'
durations minus the time their child spans cover.

Spans are only recorded inside an op: either an explicit op root
(:meth:`Tracer.op`, whose own self time is ``unattributed``) or, in the
server, a top-level request handler that names its op by the request id.
Per-op layer tables, root durations and the first :data:`MAX_SPANS` raw
spans stay in memory and are written by :meth:`Tracer.dump` at exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
from typing import Any, Callable, Dict, Iterator, List, Tuple

from harness import now_ns

__all__ = ["LAYERS", "RULE_FAMILIES", "Tracer", "install"]

MAX_SPANS = 20_000

#: layer key → the (module, attribute) bindings whose calls it times.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lang.parse": (
        ("repro.checker.frontend", "parse_file"),
        ("repro.analysis", "parse_file"),
    ),
    "checker.check_source": (("repro.checker.frontend", "check_source"),),
    "core.restrictions": (
        ("repro.checker.frontend", "non_uniform_constraints"),
        ("repro.checker.frontend", "unguarded_constructors"),
    ),
    "core.welltyped": (
        ("repro.core.welltyped", "WellTypedChecker.check_clause"),
        ("repro.core.welltyped", "WellTypedChecker.check_query"),
        ("repro.core.welltyped", "WellTypedChecker.check_resolvent"),
    ),
    "core.moded_welltyped": (
        ("repro.core.moded_welltyped", "ModedWellTypedChecker.check_clause"),
        ("repro.core.moded_welltyped", "ModedWellTypedChecker.check_query"),
        ("repro.core.moded_welltyped", "ModedWellTypedChecker.check_resolvent"),
    ),
    "core.constraint_match": (("repro.core.constraint_match", "ConstraintMatcher.match"),),
    "core.match": (("repro.core.match", "Matcher.match"),),
    "core.infer": (("repro.core.infer", "CommonTypeInference.infer"),),
    "terms.unify": (("repro.core.welltyped", "unify"),),
    "core.subtype": (("repro.core.subtype", "SubtypeEngine.holds"),),
    "core.automata": (
        ("repro.core.automata", "TreeAutomaton.holds"),
        ("repro.core.automata", "TreeAutomaton.match_ground"),
    ),
    "core.automata_store": (("repro.core.automata", "AutomataStore.automaton_for"),),
    "core.modes": (
        ("repro.core.modes", "ModeChecker.check_clause"),
        ("repro.core.modes", "ModeChecker.check_query"),
    ),
    "analysis.context": (("repro.analysis.context", "LintContext.build"),),
    "lp.resolution": (("repro.lp.resolution", "SLDEngine.solve"),),
    "service.run_batch": (
        ("repro.service.runner", "run_batch"),
        ("repro.service.aserver.workspace", "run_batch"),
    ),
    "service.cache.get": (("repro.service.cache", "ResultCache.get"),),
    "service.cache.put": (("repro.service.cache", "ResultCache.put"),),
    "service.cache.save": (("repro.service.cache", "ResultCache.save"),),
    "service.daemon": (
        ("repro.service.daemon", "CheckService.handle"),
        ("repro.service.aserver.server", "AsyncCheckServer.handle_local"),
    ),
    "service.workspace": (("repro.service.aserver.workspace", "Workspace.on_change"),),
}

#: Lint rule checks, timed per family (``analysis.tlp4xx`` ...).
RULE_FAMILIES = tuple(f"analysis.tlp{digit}xx" for digit in "123456")

#: Layers whose top-level call starts an op named by the request's id.
_REQUEST_ROOTS = {"service.daemon"}


class _ThreadState:
    __slots__ = ("stack", "op", "table", "spans")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.op: Any = None
        self.table: Dict[str, List[int]] = {}
        self.spans: List[tuple] = []


class Tracer:
    """In-memory spans with thread-local stacks and per-op layer tables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)
        #: op id → layer → [self ns (or counter sum), calls]
        self.ops: Dict[Any, Dict[str, List[int]]] = {}
        #: op id → summed duration of the op's root spans (ns)
        self.roots: Dict[Any, int] = {}
        self.gauges: Dict[str, float] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, op: Any = None) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        state = self._state()
        stack = state.stack
        if not stack:
            if op is None:
                return fn(*args, **kwargs)  # outside any op: not traced
            state.op = op
        frame = [0, next(self._ids), stack[-1][1] if stack else 0]
        stack.append(frame)
        start = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now_ns()
            stack.pop()
            self._close(state, name, frame, start, end)

    def _close(self, state: _ThreadState, name: str, frame: list, start: int, end: int) -> None:
        duration = end - start
        entry = state.table.get(name)
        if entry is None:
            entry = state.table[name] = [0, 0]
        entry[0] += duration - frame[0]
        entry[1] += 1
        if len(state.spans) < MAX_SPANS:
            state.spans.append((state.op, frame[1], frame[2], name, start, end))
        if state.stack:
            state.stack[-1][0] += duration
            return
        with self._lock:
            table = self.ops.setdefault(state.op, {})
            for key, (value, calls) in state.table.items():
                merged = table.setdefault(key, [0, 0])
                merged[0] += value
                merged[1] += calls
            self.roots[state.op] = self.roots.get(state.op, 0) + duration
        state.table = {}
        state.op = None

    @contextlib.contextmanager
    def op(self, op_id: Any) -> Iterator[None]:
        """An op root: every layer call inside belongs to ``op_id``, and
        time in no layer is ``unattributed``."""
        state = self._state()
        state.op = op_id
        frame = [0, next(self._ids), 0]
        state.stack.append(frame)
        start = now_ns()
        try:
            yield
        finally:
            end = now_ns()
            state.stack.pop()
            self._close(state, "unattributed", frame, start, end)

    def count(self, name: str, value: int) -> None:
        """Add ``value`` to a counter of the current op."""
        state = self._state()
        if state.stack:
            entry = state.table.setdefault(name, [0, 0])
            entry[0] += value
            entry[1] += 1

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    # -- output --------------------------------------------------------------

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with self._lock:
            spans = [span for state in self._states for span in state.spans]
            document = {
                "ops": {str(op_id): table for op_id, table in self.ops.items()},
                "roots": {str(op_id): ns for op_id, ns in self.roots.items()},
                "gauges": self.gauges,
                "spans": {
                    "fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
                    "kept": len(spans),
                    "max": MAX_SPANS,
                    "rows": spans,
                },
            }
        document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# -- installation ----------------------------------------------------------------


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """(owner, leaf name, raw binding); a class attribute is read from the
    class ``__dict__`` so a classmethod comes back unbound."""
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    return owner, leaf, original


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    observe = _OBSERVERS.get(name)
    root = name in _REQUEST_ROOTS

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        op = None
        if root and len(args) > 1 and isinstance(args[1], dict):
            op = args[1].get("id")
        result = tracer.call(name, fn, args, kwargs, op)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each ``next()`` of a generator as one span of ``name``."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        generator = fn(*args, **kwargs)
        try:
            while True:
                try:
                    item = tracer.call(name, next, (generator,), {})
                except StopIteration:
                    return
                yield item
        finally:
            generator.close()

    return traced


class _TracedCheck:
    """A lint rule's check function, timed under its family.

    ``lint_source`` rebinds ``rule.check._rule`` before each call so severity
    overrides reach findings, and the check reads ``_rule`` back through its
    module global, i.e. from the original function: attribute reads and
    writes are therefore forwarded to it.
    """

    def __init__(self, tracer: Tracer, name: str, fn: Callable) -> None:
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_fn", fn)

    def __call__(self, ctx: Any) -> Any:
        return self._tracer.call(self._name, self._fn, (ctx,), {})

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._fn, attribute)

    def __setattr__(self, attribute: str, value: Any) -> None:
        setattr(self._fn, attribute, value)


def _observe_parse(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("lang.parse.bytes", len(args[0].encode("utf-8")))


def _observe_cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("service.cache.hits", int(result is not None))


def _observe_cache_save(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.gauge_max("service.cache.entries", len(args[0]))


def _observe_store(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.automata_store.refusals", int(result is None))


_OBSERVERS = {
    "lang.parse": _observe_parse,
    "service.cache.get": _observe_cache_get,
    "service.cache.save": _observe_cache_save,
    "core.automata_store": _observe_store,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer binding in :data:`LAYERS` and every registered
    lint rule check.  Call once, before the traced work starts."""
    for name, bindings in LAYERS.items():
        for module_name, attribute in bindings:
            owner, leaf, original = _resolve(module_name, attribute)
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(_wrap(tracer, name, original.__func__))
            elif name == "lp.resolution":
                wrapped = _wrap_generator(tracer, name, original)
            else:
                wrapped = _wrap(tracer, name, original)
            setattr(owner, leaf, wrapped)
    from repro.analysis import default_registry

    for rule in default_registry().rules:
        family = f"analysis.tlp{rule.code[3]}xx"
        # Rule is a frozen dataclass; the registry keeps this very object.
        object.__setattr__(rule, "check", _TracedCheck(tracer, family, rule.check))
