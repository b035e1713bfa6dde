"""Tracing from outside the program: wrap apwords' public functions, record
spans, and reduce them to per-layer metrics.

`Tracer.install()` replaces each public function of the layer modules with
a wrapper, in the module that defines it and under every name another
apwords module imported it by (cli imports `check_window`, `run_mealy`, ...
by name; analysis and machines reach `_kernels.find_occurrences` and
`_kernels.mealy_run` as module attributes).  A few methods that carry a
layer's work are wrapped on their class.  `uninstall()` puts the originals
back.

A span is [name, start, end, parent, op, n, m]: `parent` indexes the span
that was open when this one started (-1 for none), `op` is the operation it
belongs to ("<pass>:<index>"), and n, m are counts some spans record
(symbols, hits, factors).
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# layer (metric prefix) -> module
LAYERS = {
    "cli": "apwords.cli",
    "generators": "apwords.generators",
    "sources": "apwords.sources",
    "words": "apwords.words",
    "kernels": "apwords._kernels",
    "analysis": "apwords.analysis",
    "machines": "apwords.machines",
}

# _kernels exposes both implementations of each kernel; the entry points
# are the names the other modules call.
KERNEL_ENTRIES = ("find_occurrences", "mealy_run")

# Methods that carry a layer's work: (layer, module, class, method).
METHODS = (
    ("generators", "apwords.generators", "CounterexampleFamily", "prefix_array"),
    ("sources", "apwords.sources", "InfiniteWordSource", "materialize_to"),
    ("sources", "apwords.sources", "InfiniteWordSource", "prefix_array"),
)


def _run_counts(args, result, _):
    return len(args[1]), len(result.output)


# span name -> counts(args, result, before) -> (n, m)
COUNTS = {
    "kernels.find_occurrences": lambda a, r, _: (a[0].shape[0], r.size),
    "kernels.mealy_run": lambda a, r, _: (a[3].shape[0], 0),
    "analysis.recurrence_stability": lambda a, r, _: (len(r.entries), 0),
    "machines.run_mealy": _run_counts,
    "machines.run_transducer": _run_counts,
    "generators.CounterexampleFamily.prefix_array": lambda a, r, _: (int(a[1]), 0),
    # n = length asked for, m = which source was asked
    "sources.InfiniteWordSource.prefix_array": lambda a, r, _: (int(a[1]), id(a[0])),
    # n = symbols computed: materialize_to rebuilds the whole buffer when it grows
    "sources.InfiniteWordSource.materialize_to":
        lambda a, r, before: (a[0].materialized if a[0].materialized != before else 0, 0),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = ""  # "<pass>:<index>", set by the harness before each operation
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = COUNTS.get(name)
        materialize = name == "sources.InfiniteWordSource.materialize_to"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            before = None
            if materialize:
                # One name per source class, so morphic expansion shows apart.
                label = f"sources.materialize_to:{type(args[0]).__name__}"
                before = args[0].materialized
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5], span[6] = counts(args, result, before)
            return result

        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        wrappers = {}  # original function -> wrapper
        modules = {layer: importlib.import_module(m) for layer, m in LAYERS.items()}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if layer == "kernels" and attr not in KERNEL_ENTRIES:
                    continue
                if fn.__module__ != mod.__name__ or fn in wrappers:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        package = importlib.import_module("apwords")
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        for layer, modname, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            fn = cls.__dict__[meth]
            self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better)
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "generators.prefix_s": ("s", "lower"),
    "generators.prefix_symbols": ("count", "lower"),
    "sources.materialize_s": ("s", "lower"),
    "sources.materialize_calls": ("count", "lower"),
    "sources.symbols_materialized": ("count", "lower"),
    "sources.useful_ratio": ("ratio", "higher"),
    "sources.morphic_s": ("s", "lower"),
    "words.render_s": ("s", "lower"),
    "words.parse_s": ("s", "lower"),
    "words.occurrences_calls": ("count", "lower"),
    "kernels.scan_s": ("s", "lower"),
    "kernels.scan_calls": ("count", "lower"),
    "kernels.scan_symbols": ("count", "lower"),
    "kernels.scan_hits": ("count", "lower"),
    "kernels.mealy_s": ("s", "lower"),
    "kernels.mealy_symbols": ("count", "lower"),
    "analysis.stability_self_s": ("s", "lower"),
    "analysis.reduce_s": ("s", "lower"),
    "analysis.factors": ("count", "lower"),
    "analysis.scans_per_factor": ("ratio", "lower"),
    "analysis.cuts_tried": ("count", "lower"),
    "analysis.check_window_self_s": ("s", "lower"),
    "analysis.verify_s": ("s", "lower"),
    "machines.run_self_s": ("s", "lower"),
    "machines.run_symbols": ("count", "lower"),
    "machines.output_symbols": ("count", "lower"),
    "machines.homomorphism_s": ("s", "lower"),
    "machines.decompose_s": ("s", "lower"),
    "machines.build_s": ("s", "lower"),
}


def layer_metrics(spans: list[list], pass_no: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass through the operation list.

    Operation ids are "<pass>:<index>"; parent indices point into `spans`
    as recorded.
    """
    prefix = f"{pass_no}:"
    by_name = defaultdict(list)
    child = defaultdict(float)
    for i, s in enumerate(spans):
        if not s[4].startswith(prefix):
            continue
        by_name[s[0]].append(i)
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(names):
        return sum(dur(i) - child[i] for n in names for i in by_name.get(n, ()))

    def total(names):
        """Time under the named spans, counting nested ones once."""
        names = set(names)
        out = 0.0
        for n in names:
            for i in by_name.get(n, ()):
                p = spans[i][3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    out += dur(i)
        return out

    def count(name):
        return len(by_name.get(name, ()))

    def summed(name, field):
        return sum(spans[i][field] for i in by_name.get(name, ()))

    materialize = [n for n in by_name if n.startswith("sources.materialize_to:")]
    asked = {}  # (op, source) -> longest prefix asked for
    for i in by_name.get("sources.InfiniteWordSource.prefix_array", ()):
        key = (spans[i][4], spans[i][6])
        asked[key] = max(asked.get(key, 0), spans[i][5])
    materialized = sum(summed(n, 5) for n in materialize)
    factors = summed("analysis.recurrence_stability", 5)
    scans = count("kernels.find_occurrences")
    cli_names = [n for n in by_name if n.startswith("cli.")]
    verify = [n for n in by_name if n.startswith("analysis.verify_")]
    runs = ("machines.run_mealy", "machines.run_transducer")
    cut_search = set(by_name.get("analysis.eap_cut_search", ()))

    values = {
        "cli.self_s": self_time(cli_names),
        "cli.output_bytes": output_bytes,
        "generators.prefix_s": total(["generators.CounterexampleFamily.prefix_array"]),
        "generators.prefix_symbols": summed("generators.CounterexampleFamily.prefix_array", 5),
        "sources.materialize_s": total(materialize),
        "sources.materialize_calls": sum(count(n) for n in materialize),
        "sources.symbols_materialized": materialized,
        "sources.useful_ratio": sum(asked.values()) / materialized if materialized else 0.0,
        "sources.morphic_s": total(["sources.materialize_to:MorphicSource"]),
        "words.render_s": total(["words.render_symbols"]),
        "words.parse_s": total(["words.parse_word"]),
        "words.occurrences_calls": count("words.occurrences"),
        "kernels.scan_s": total(["kernels.find_occurrences"]),
        "kernels.scan_calls": scans,
        "kernels.scan_symbols": summed("kernels.find_occurrences", 5),
        "kernels.scan_hits": summed("kernels.find_occurrences", 6),
        "kernels.mealy_s": total(["kernels.mealy_run"]),
        "kernels.mealy_symbols": summed("kernels.mealy_run", 5),
        "analysis.stability_self_s": self_time(["analysis.recurrence_stability"]),
        "analysis.reduce_s": total(["analysis.min_window_from_starts"]),
        "analysis.factors": factors,
        "analysis.scans_per_factor": scans / factors if factors else 0.0,
        "analysis.cuts_tried": sum(
            1 for i in by_name.get("analysis.recurrence_stability", ())
            if spans[i][3] in cut_search
        ),
        "analysis.check_window_self_s": self_time(["analysis.check_window"]),
        "analysis.verify_s": total(verify),
        "machines.run_self_s": self_time(runs),
        "machines.run_symbols": sum(summed(n, 5) for n in runs),
        "machines.output_symbols": sum(summed(n, 6) for n in runs),
        "machines.homomorphism_s": total(["machines.apply_homomorphism"]),
        "machines.decompose_s": total(["machines.decompose_transducer"]),
        "machines.build_s": total(["machines.delay_prepend_automaton", "machines.parse_machine"]),
    }
    assert set(values) == set(PER_LAYER)
    return values
