"""Span tracing of the program's layers, installed from outside the program.

``install`` replaces each public function in ``TARGETS`` by a wrapper that
records one span per call (name, start, end, parent, raised) in flat arrays,
so millions of calls fit in a few tens of megabytes.  A layer's self time is
its span time minus the time of its child spans.  Counts that need the call's
arguments or result (``zetasum.terms``, ``linalg.rref.cells``, the useful
fixed-cutoff calls) are kept in a Counter next to the spans.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute) of every wrapped function; the span name is
# "module.attribute".  exact is not wrapped: its CoeffExpr/PiRational
# operations run ~10^5 times per kernel and show as their callers' self time.
TARGETS = (
    ("zetasum", "shifted_nested_sum"),
    ("zetasum", "shifted_nested_sum_fixed"),
    ("numerics", "multitangent_eval_direct"),
    ("numerics", "multitangent_eval_reduced"),
    ("numerics", "monotangent_eval"),
    ("numerics", "hurwitz_eval"),
    ("mzv", "mzv_numeric"),
    ("mzv", "symmetrel_extend"),
    ("mzv", "linearize"),
    ("words", "stuffle"),
    ("reduction", "reduce"),
    ("basis_table", "MzvBasisTable.load"),
    ("basis_table", "MzvBasisTable.substitute"),
    ("linalg", "rref"),
    ("lab", "slot_vector"),
    ("lab", "MtCombo.evaluate"),
    ("lab", "relation_kernel"),
    ("lab", "projection"),
    ("lab", "unit_cleanse"),
    ("verify", "run_suite"),
)
# lru_cache'd targets whose hit ratio is read from cache_info()
CACHED = ("mzv.symmetrel_extend", "words.stuffle")
# metrics that must repeat exactly between two traced runs of one seed
DETERMINISTIC_SUFFIXES = (".calls", "zetasum.terms", "linalg.rref.cells")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self.nested_target: dict[int, float] = {}  # nested-sum span -> target
        self.open: list[int] = []  # spans entered and not yet left

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span called ``name``.  ``before(*args, **kw)``
        runs first; ``after(result, *args, **kw)`` runs on success."""
        kind = len(self.names)
        self.names.append(name)
        spans_kind, spans_parent = self.kind, self.parent
        starts, ends, raised, open_ = self.start, self.end, self.raised, self.open

        def wrapper(*args, **kwargs):
            idx = len(starts)
            spans_kind.append(kind)
            spans_parent.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            raised.append(0)
            open_.append(idx)
            starts.append(perf_counter())
            if before is not None:
                before(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                open_.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper


def self_times(kind, parent, start, end, lo: int = 0, hi: int | None = None):
    """Per span kind: (calls, self time) over spans lo..hi-1.

    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent.
    """
    hi = len(start) if hi is None else hi
    child = [0.0] * len(start)
    for i in range(hi):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i in range(lo, hi):
        calls[kind[i]] += 1
        self_s[kind[i]] += end[i] - start[i] - child[i]
    return calls, self_s


def _modules():
    import multitangent  # noqa: F401  (loads every submodule the targets use)

    return {
        name: importlib.import_module(f"multitangent.{name}")
        for name in {m for m, _ in TARGETS} | {"cli", "families"}
    }


def install(tracer: Tracer) -> dict:
    """Wrap every target, replacing each alias of it in every loaded
    multitangent module.  Returns the original lru_cache objects of CACHED,
    keyed by span name, for reading cache_info()."""
    mods = _modules()

    def fixed_args(exponents, z, n0, order=None):
        tracer.counts["zetasum.terms"] += n0 * len(exponents)

    def fixed_result(result, *args, **kwargs):
        # the fixed span has closed, so the open span on top is its caller
        target = tracer.nested_target.get(tracer.open[-1]) if tracer.open else None
        if target is not None and result[1] <= target:
            tracer.counts["zetasum.shifted_nested_sum_fixed.useful"] += 1

    def record_target(exponents, z=0, target=1e-12, *args, **kwargs):
        tracer.nested_target[tracer.open[-1]] = target

    def rref_cells(m):
        tracer.counts["linalg.rref.cells"] += len(m) * len(m[0]) if m else 0

    hooks = {
        "zetasum.shifted_nested_sum_fixed": (fixed_args, fixed_result),
        "zetasum.shifted_nested_sum": (record_target, None),
        "linalg.rref": (rref_cells, None),
    }
    originals = {}
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        before, after = hooks.get(name, (None, None))
        owner = mods[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, before, after)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, before, after))
            continue
        orig = getattr(owner, attr)
        originals[name] = orig
        wrapper = tracer.wrap(name, orig, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "multitangent" or mod_name.startswith("multitangent."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
    return {name: originals[name] for name in CACHED}


def cache_stats(originals: dict) -> dict:
    return {name: fn.cache_info() for name, fn in originals.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, mark: int, counts_at_mark: Counter,
                  cache_before: dict, cache_after: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timed phase (spans from ``mark`` on), plus
    the set-up figures of the table load.  Returns {name: (value, unit)}."""
    calls, self_s = self_times(tracer.kind, tracer.parent, tracer.start, tracer.end, mark)
    setup_calls, setup_self = self_times(
        tracer.kind, tracer.parent, tracer.start, tracer.end, 0, mark
    )
    ids = {name: i for i, name in enumerate(tracer.names)}
    counts = tracer.counts - counts_at_mark
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls_self(name):
        put(f"{name}.calls", calls[ids[name]], "count")
        put(f"{name}.self_s", self_s[ids[name]], "s")

    nested, fixed, direct = (
        ids["zetasum.shifted_nested_sum"],
        ids["zetasum.shifted_nested_sum_fixed"],
        ids["numerics.multitangent_eval_direct"],
    )
    # nested-sum calls with a fixed-cutoff child, and their failures;
    # nested-sum calls made directly by multitangent_eval_direct
    missed, failed, under_direct = set(), 0, 0
    kind, parent, raised = tracer.kind, tracer.parent, tracer.raised
    for i in range(mark, len(kind)):
        k = kind[i]
        if k == fixed and parent[i] >= 0 and kind[parent[i]] == nested:
            missed.add(parent[i])
        elif k == nested:
            failed += raised[i]
            if parent[i] >= 0 and kind[parent[i]] == direct:
                under_direct += 1

    calls_self("zetasum.shifted_nested_sum")
    n_nested = calls[nested]
    put("zetasum.shifted_nested_sum.hit_ratio", _ratio(n_nested - len(missed), n_nested), "ratio")
    put("zetasum.shifted_nested_sum.failed", failed, "count")
    calls_self("zetasum.shifted_nested_sum_fixed")
    put(
        "zetasum.shifted_nested_sum_fixed.useful_ratio",
        _ratio(counts["zetasum.shifted_nested_sum_fixed.useful"], calls[fixed]),
        "ratio",
    )
    put("zetasum.terms", counts["zetasum.terms"], "count")
    calls_self("numerics.multitangent_eval_direct")
    put("numerics.multitangent_eval_direct.sums_per_call", _ratio(under_direct, calls[direct]), "sums/call")
    for name in (
        "numerics.multitangent_eval_reduced",
        "numerics.monotangent_eval",
        "numerics.hurwitz_eval",
        "mzv.mzv_numeric",
        "mzv.symmetrel_extend",
        "mzv.linearize",
        "words.stuffle",
        "reduction.reduce",
        "basis_table.MzvBasisTable.substitute",
        "linalg.rref",
        "lab.slot_vector",
        "lab.MtCombo.evaluate",
    ):
        calls_self(name)
    for name in CACHED:
        hits = cache_after[name].hits - cache_before[name].hits
        misses = cache_after[name].misses - cache_before[name].misses
        put(f"{name}.hit_ratio", _ratio(hits, hits + misses), "ratio")
    put("linalg.rref.cells", counts["linalg.rref.cells"], "count")
    for name in ("lab.relation_kernel", "lab.projection", "lab.unit_cleanse", "verify.run_suite"):
        put(f"{name}.self_s", self_s[ids[name]], "s")
    put("basis_table.MzvBasisTable.load.self_s", setup_self[ids["basis_table.MzvBasisTable.load"]], "s")
    put("setup.zetasum.shifted_nested_sum_fixed.calls", setup_calls[fixed], "count")
    put("setup.zetasum.shifted_nested_sum_fixed.self_s", setup_self[fixed], "s")
    put("setup.zetasum.terms", counts_at_mark["zetasum.terms"], "count")
    return out
