"""Spans and counters recorded from outside the package.

A Tracer replaces the package's layer functions by timing wrappers for
the length of one pass and puts the originals back afterwards.  A
wrapper has to sit where the caller looks the name up: a function is
replaced in every ``cyclocover`` module whose globals hold it (``strata``
imports ``h1`` and ``fabc`` by name, ``hassewitt`` imports ``factor``,
``fabc`` imports ``binomial_mod_p``), a method on its class.

Spans are appended to an in-memory list as (name, start_ns, end_ns,
parent index) and written out when the run ends.  A layer's self time is
its span time minus the time of the wrapped spans directly inside it.
``binomial_mod_p`` runs ~15M times in one pass, so it is counted, not
spanned.
"""

import gzip
import itertools
import sys
from collections import defaultdict
from time import perf_counter_ns


def _nonzero_terms(poly):
    # reads the stored form only: touching .terms or .coeffs would build
    # the other form and change which multiplication path runs next
    terms = poly._terms
    return len(terms) if terms is not None else len(poly._coeffs) - poly._coeffs.count(0)


def _divrem_work(args, result):
    a, b = args[0].degree, args[1].degree
    if a is None or b is None or a < b:
        return {"work": 0}
    return {"work": (a - b + 1) * (b + 1)}


def _gcd_counts(args, result):
    return {"in_degree": max(args[0].degree or 0, args[1].degree or 0)}


def _mul_counts(args, result):
    return {"pairs": _nonzero_terms(args[0]) * _nonzero_terms(args[1])}


def _shift_counts(args, result):
    return {"terms": len(result.terms)}


def _fabc_counts(args, result):
    q = args[0]
    return {"coeffs": max(0, min(q.a, q.c) - max(0, q.c - q.b) + 1)}


def _h1_counts(args, result):
    return {"out_degree": result.degree or 0, "out_terms": _nonzero_terms(result)}


def _entry_counts(args, result):
    return {"terms": len(result.terms)}


# (layer, module, attribute path, counter function); a layer may wrap
# several functions, whose spans then share its name
SPANNED = (
    ("ff.divrem", "cyclocover.ff", "FpUniPoly.divrem", _divrem_work),
    ("ff.gcd", "cyclocover.ff", "FpUniPoly.gcd", _gcd_counts),
    ("ff.mul", "cyclocover.ff", "FpUniPoly.__mul__", _mul_counts),
    ("ff.powmod", "cyclocover.ff", "poly_powmod", None),
    ("ff.factor", "cyclocover.ff", "factor", None),
    ("ff.shift", "cyclocover.ff", "FpMultiPoly.substitute_shift", _shift_counts),
    ("fabc.fabc", "cyclocover.fabc", "fabc", _fabc_counts),
    ("hassewitt.h1", "cyclocover.hassewitt", "h1", _h1_counts),
    ("hassewitt.entry", "cyclocover.hassewitt", "phi_entry", _entry_counts),
    ("hassewitt.entry", "cyclocover.hassewitt", "psi_entry", _entry_counts),
    ("hassewitt.build_chain", "cyclocover.hassewitt", "build_chain", None),
    ("hassewitt.multiplicity", "cyclocover.hassewitt", "h0_divisor_multiplicity", None),
    ("strata.census", "cyclocover.strata", "census", None),
    ("cli", "cyclocover.cli", "main", None),
)

# per-layer metrics reported by a traced run, in BENCHMARK.json order
LAYER_METRICS = (
    ("ff.divrem.calls", "count"), ("ff.divrem.self_s", "s"), ("ff.divrem.work", "coeff-ops"),
    ("ff.gcd.calls", "count"), ("ff.gcd.self_s", "s"), ("ff.gcd.in_degree", "degree"),
    ("ff.mul.calls", "count"), ("ff.mul.self_s", "s"), ("ff.mul.pairs", "term-pairs"),
    ("ff.powmod.calls", "count"), ("ff.powmod.self_s", "s"),
    ("ff.factor.calls", "count"), ("ff.factor.self_s", "s"),
    ("ff.binomial.calls", "count"),
    ("ff.shift.self_s", "s"), ("ff.shift.terms", "terms"),
    ("fabc.fabc.calls", "count"), ("fabc.fabc.self_s", "s"), ("fabc.fabc.coeffs", "coeffs"),
    ("hassewitt.h1.calls", "count"), ("hassewitt.h1.self_s", "s"),
    ("hassewitt.h1.out_degree", "degree"), ("hassewitt.h1.out_terms", "terms"),
    ("hassewitt.entry.calls", "count"), ("hassewitt.entry.self_s", "s"),
    ("hassewitt.entry.terms", "terms"),
    ("hassewitt.build_chain.calls", "count"), ("hassewitt.multiplicity.self_s", "s"),
    ("strata.census.calls", "count"), ("strata.census.self_s", "s"),
    ("cli.self_s", "s"), ("cli.cache_hits", "count"), ("cli.cache_misses", "count"),
    ("trace.overhead", "%"),
)


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def _span(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            counts[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    counts[name + "." + key] += value
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Rebind every package global that holds `original`."""
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "cyclocover":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self):
        for layer, module, path, count in SPANNED:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._span(layer, original, count)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)

        ff = sys.modules["cyclocover.ff"]
        tick = itertools.count().__next__
        binomial = ff.binomial_mod_p

        def counted_binomial(n, k, p):
            tick()
            return binomial(n, k, p)

        self._binomial_ticks = tick
        self._replace_everywhere(binomial, counted_binomial)

        cache = sys.modules["cyclocover.cli"].RecordCache
        get = cache.get
        counts = self.counts

        def counted_get(obj, key):
            record = get(obj, key)
            counts["cli.cache_hits" if record is not None else "cli.cache_misses"] += 1
            return record

        self._replace(cache, "get", counted_get)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.counts["ff.binomial.calls"] = self._binomial_ticks()

    def self_times(self):
        """Seconds of self time per layer."""
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start - child) / 1e9
        return out

    def metrics(self, overhead):
        values = dict(self.counts)
        for name, seconds in self.self_times().items():
            values[name + ".self_s"] = seconds
        values["trace.overhead"] = overhead
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}

    def write(self, path):
        """Spans as 'name start_ns end_ns parent' lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name} {start} {end} {parent}\n")
