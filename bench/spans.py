"""In-memory span tracing around the package's layer boundaries.

``Tracer.install`` replaces each traced function at every place the
package binds it (module globals such as ``pipeline.infer`` or
``cli.evaluate_merchant``, and class attributes for methods), then checks
that no module still holds an original.  Spans are ``(name, start, end,
parent)`` tuples; a span's self time is its duration minus the durations
of its direct children.

Only the calls into each layer are wrapped.  Helpers inside a layer
(``fuzzify``, ``gaussian_mf``, ``record_from_dict``) are not: their time
belongs to the enclosing layer, and wrapping them would multiply the
tracing overhead.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "certaintrust"

#: (module, attribute path) of every traced function; every public
#: function of ``opinion`` is traced as well
TRACED = (
    ("store", "EvidenceStore.records"),
    ("store", "EvidenceStore.load_profile"),
    ("store", "EvidenceStore.append"),
    ("store", "EvidenceStore.counts"),
    ("variables", "normalize_name"),
    ("pipeline", "evaluate_merchant"),
    ("pipeline", "variable_trust"),
    ("pipeline", "compare_merchants"),
    ("pipeline", "merchant_trust"),
    ("pipeline", "module_trust_average"),
    ("pipeline", "module_trust_fuzzy"),
    ("fuzzy", "infer"),
    ("fuzzy", "surface_grid"),
    ("fuzzy", "SurfaceGrid.to_csv"),
    ("cli", "main"),
)

#: holds a hook's own time, so that it counts against no layer
HOOK_SPAN = "trace.hook"


class TraceError(RuntimeError):
    """A traced function could not be found or patched everywhere it is bound."""


def package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class _CountingOs:
    """Stands in for ``os`` inside the package and counts ``fsync`` calls."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self._tracer.counts["store.fsyncs"] += 1
        return os.fsync(fd)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []  # (span index, name, args) of open spans
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._restore: list = []

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append((index, name, args))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if hook is not None:
                h0 = perf_counter()
                hook(args, result, end - start)
                tracer.spans.append((HOOK_SPAN, h0, perf_counter(), parent))
            return result

        return traced

    def open_arg(self, name: str, position: int):
        """Argument ``position`` of the innermost open span called ``name``."""
        for _, open_name, args in reversed(self.stack):
            if open_name == name and len(args) > position:
                return args[position]
        return None

    # -- hooks: counts taken where the work happens ---------------------
    def _on_records(self, args, result, duration) -> None:
        self.counts["store.lines_parsed"] += len(result)
        merchant = self.open_arg("store.load_profile", 1)
        if merchant is not None:
            self.counts["store.lines_matched"] += sum(
                1 for r in result if getattr(r, "merchant", None) == merchant
            )

    def _on_append(self, args, result, duration) -> None:
        self.samples["store.append"].append(duration)

    def _on_infer(self, args, result, duration) -> None:
        rules = len(args[0].rules)
        self.counts["fuzzy.rules_evaluated"] += rules
        self.samples[f"fuzzy.infer{rules}"].append(duration)

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Patch every traced function at every binding site in the package."""
        modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        hooks = {
            "store.records": self._on_records,
            "store.append": self._on_append,
            "fuzzy.infer": self._on_infer,
        }
        targets = list(TRACED)
        opinion = modules.get("opinion")
        if opinion is None:
            raise TraceError(f"{PACKAGE}.opinion is not imported")
        targets += [
            ("opinion", name) for name, obj in vars(opinion).items()
            if callable(obj) and not name.startswith("_") and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == opinion.__name__
        ]
        originals = []
        for module_name, path in targets:
            module = modules.get(module_name)
            if module is None:
                raise TraceError(f"{PACKAGE}.{module_name} is not imported")
            owner_name, _, attr = path.rpartition(".")
            span = f"{module_name}.{attr}"
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    raise TraceError(f"{PACKAGE}.{module_name}.{path} not found")
                self._set(owner, attr, self.wrap(span, original, hooks.get(span)))
                continue
            original = vars(module).get(attr)
            if original is None:
                raise TraceError(f"{PACKAGE}.{module_name}.{path} not found")
            originals.append(original)
            wrapped = self.wrap(span, original, hooks.get(span))
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        counting_os = _CountingOs(self)
        for m in modules.values():
            if vars(m).get("os") is os:
                self._set(m, "os", counting_os)
        stale = [
            f"{m.__name__}.{key}" for m in modules.values()
            for key, value in vars(m).items() if any(value is o for o in originals)
        ]
        if stale:
            self.uninstall()
            raise TraceError(f"unpatched bindings: {', '.join(stale)}")

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------
    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        return stats
