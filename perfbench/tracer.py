"""In-memory call tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the `peakalg` modules from
outside the library.  A module-level function is replaced in every `peakalg`
namespace that holds it (so `from .permutations import compose` in another
module is wrapped too); a method is replaced on its class.  A target that no
longer exists is recorded as absent instead of failing, so that planned
renames and merges in the library leave the benchmark running.

Each wrapped call is either only counted ("count": hot, tiny functions whose
spans would cost more than the work) or also recorded as a span ("span").
Spans are kept in memory as (id, parent id, key, start, end) and written out
when the run ends; a key's self time is its spans' durations minus the parts
covered by their direct child spans.  Work inside count-only functions is
therefore part of the calling span's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (target, key, mode).  A target is "module:function" or "module:Class.method"
# inside the package; a trailing "*" matches every function of the module
# whose name starts with the given prefix.  Targets sharing a key add up.
PLAN = (
    ("permutations:compose", "permutations.compose", "count"),
    ("permutations:rank", "permutations.rank", "count"),
    ("permutations:stat_set", "permutations.stat_set", "count"),
    ("permutations:enumerate_group", "permutations.enumerate_group", "span"),
    ("group_algebra:AlgebraElement.convolve", "group_algebra.convolve", "span"),
    ("group_algebra:factorization_counts", "group_algebra.factorization_counts", "span"),
    ("group_algebra:structure_table", "group_algebra.structure_table", "span"),
    ("group_algebra:representative_audit", "group_algebra.representative_audit", "span"),
    ("group_algebra:closure_check", "group_algebra.closure_check", "span"),
    ("group_algebra:multiplicative_closure", "group_algebra.multiplicative_closure", "span"),
    ("group_algebra:class_sums", "group_algebra.class_sums", "span"),
    ("linalg:Span.add", "linalg.Span.add", "count"),
    ("linalg:Span.contains", "linalg.Span.contains", "count"),
    ("linalg:Span.reduce", "linalg.Span.reduce", "span"),
    ("enriched:poset_epp_maps", "enriched.poset_epp_maps", "span"),
    ("enriched:signed_poset_epp_maps", "enriched.signed_poset_epp_maps", "span"),
    ("enriched:census_of_maps", "enriched.census_of_maps", "span"),
    ("enriched:chain_census", "enriched.chain_census", "span"),
    ("enriched:factorization_census", "enriched.factorization_census", "span"),
    ("alphabets:Alphabet.leq_plus", "alphabets.leq", "count"),
    ("alphabets:Alphabet.leq_minus", "alphabets.leq", "count"),
    ("posets:LabeledPoset.linear_extensions", "posets.linear_extensions", "span"),
    ("posets:SignedPoset.linear_extensions", "posets.linear_extensions", "span"),
    ("posets:random_poset", "posets.random_poset", "count"),
    ("posets:random_signed_poset", "posets.random_poset", "count"),
    ("qsym:peak_function*", "qsym.peak_functions", "span"),
    ("qsym:evaluate", "qsym.evaluate", "span"),
    ("qsym:rank_of_span", "qsym.rank_of_span", "span"),
    ("qsym:quasi_shuffle", "qsym.quasi_shuffle", "span"),
    ("eulerian:rho", "eulerian.rho", "span"),
    ("eulerian:verify_rho_multiplicativity", "eulerian.verify_rho_multiplicativity", "span"),
    ("eulerian:negative_battery", "eulerian.negative_battery", "span"),
    ("eulerian:order_polynomial", "eulerian.order_polynomial", "span"),
)


def _convolve_pairs(args, result):
    return "group_algebra.convolve.pairs", len(args[0].coeffs) * len(args[1].coeffs)


def _maps_returned(args, result):
    return "enriched.maps_returned", len(result)


# Extra counters read from a call's arguments or result, by key.
HOOKS = {
    "group_algebra.convolve": _convolve_pairs,
    "enriched.poset_epp_maps": _maps_returned,
    "enriched.signed_poset_epp_maps": _maps_returned,
}


PACKAGE = "peakalg"


class Tracer:
    def __init__(self, plan=PLAN) -> None:
        self.plan = plan
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.installed: set[str] = set()
        self._stack = [0]
        self._last_id = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target, key, mode in self.plan:
            module_name, _, attr = target.partition(":")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if inspect.isfunction(original):
                    setattr(owner, method, self._wrap(original, key, mode))
                    self.installed.add(key)
                continue
            if attr.endswith("*"):
                names = [name for name, value in vars(module).items()
                         if name.startswith(attr[:-1]) and _is_function_of(value, module)]
            else:
                names = [attr] if _is_function_of(getattr(module, attr, None), module) else []
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(original, key, mode)
                for namespace in modules:
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, bound, wrapper)
                self.installed.add(key)

    def absent(self) -> list[str]:
        return sorted({key for _, key, _ in self.plan} - self.installed)

    def _wrap(self, original, key: str, mode: str):
        counts = self.counts
        hook = HOOKS.get(key)
        if mode == "count":
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(original):
            def generated(*args, **kwargs):
                counts[key] += 1
                return self._timed_generator(original(*args, **kwargs), key)
            return generated

        def spanned(*args, **kwargs):
            counts[key] += 1
            with self.span(key):
                result = original(*args, **kwargs)
            if hook is not None:
                extra, value = hook(args, result)
                counts[extra] += value
            return result
        return spanned

    def _timed_generator(self, generator, key: str):
        """Time each resumption of a generator as its own span, so the work
        of the consumer between items is not charged to the generator."""
        while True:
            with self.span(key):
                try:
                    item = next(generator)
                except StopIteration:
                    return
            yield item

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, key: str):
        self._last_id += 1
        span_id, parent = self._last_id, self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, key, start, end))

    def summary(self) -> dict:
        """Calls and counters, total and self seconds per key."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span_id, _, key, start, end in self.spans:
            total[key] += end - start
            own[key] += end - start - covered[span_id]
        return {"counts": dict(self.counts), "total_s": dict(total), "self_s": dict(own),
                "absent": self.absent(), "spans": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _is_function_of(value, module) -> bool:
    return callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == module.__name__
