"""Spans around the calls the benchmark makes into each clzeta layer.

Nothing under ``src/`` changes: :func:`install` wraps the module attributes
that callers look up (``clzeta.verify.count_matrix_points``,
``clzeta.oracle.matrix_points._kernels.nullity_histogram``,
``TruncSeries.__mul__``, ...) and returns a function that puts the originals
back.  A span name is ``<layer>.<what>``; the layer is the part before the
first dot.  Spans stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

#: every layer a span can belong to, in report order
LAYERS = (
    "cli",
    "verify",
    "relations",
    "matrix_points",
    "kernel",
    "series",
    "formulas",
    "partitions",
    "endomorphisms",
    "framing",
    "permutations",
    "dirichlet",
)


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "child", "outer_name", "outer_layer")


class Tracer:
    """Nested spans on one thread, aggregated as they close.

    ``busy[name]`` sums the spans of that name with no ancestor of the same
    name, ``layer_busy`` does the same per layer, and ``self_time`` is a
    span's duration minus the part its child spans cover.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.root_time = 0.0
        self._stack: list[Span] = []
        self._active_names: Counter = Counter()
        self._active_layers: Counter = Counter()
        self._next_id = 0

    def open(self, name: str) -> Span:
        s = Span()
        s.id = self._next_id
        self._next_id += 1
        s.parent = self._stack[-1].id if self._stack else -1
        s.name = name
        s.layer = name.split(".", 1)[0]
        s.child = 0.0
        s.outer_name = not self._active_names[name]
        s.outer_layer = not self._active_layers[s.layer]
        self._active_names[name] += 1
        self._active_layers[s.layer] += 1
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def close(self, s: Span) -> float:
        s.end = time.perf_counter()
        top = self._stack.pop()
        if top is not s:
            raise RuntimeError(f"span {s.name} closed out of order")
        self._active_names[s.name] -= 1
        self._active_layers[s.layer] -= 1
        dur = s.end - s.start
        self.calls[s.name] += 1
        self.self_time[s.name] += dur - s.child
        if s.outer_name:
            self.busy[s.name] += dur
        if s.outer_layer:
            self.layer_busy[s.layer] += dur
        if self._stack:
            self._stack[-1].child += dur
        else:
            self.root_time += dur
        self.spans.append((s.id, s.parent, s.name, s.start, s.end))
        return dur

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` inside a span; ``on_exit(tracer, span, args, kwargs,
        result)`` records counts after a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if on_exit is not None:
                on_exit(self, s, args, kwargs, result)
            return result

        return traced

    def wrap_iterable(self, name: str, fn):
        """``fn`` returns an iterator; each ``next`` on it runs in a span, so
        the time is that of iteration, not of creating the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedIterator(self, name, fn(*args, **kwargs))

        return traced

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


class _TimedIterator:
    __slots__ = ("tracer", "name", "it")

    def __init__(self, tracer, name, it):
        self.tracer, self.name, self.it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        s = self.tracer.open(self.name)
        try:
            return next(self.it)
        finally:
            self.tracer.close(s)


# -- counters recorded when a wrapped call returns ---------------------------


def _kernel_counts(tr, s, args, kwargs, result):
    n, p, start, stop = args[:4]
    hist, rejected, inconsistent = result
    scanned = stop - start
    tr.counts["kernel.a_scanned"] += scanned
    tr.counts["kernel.rejected"] += rejected
    tr.counts["kernel.inconsistent"] += inconsistent
    tr.counts[f"kernel.a_scanned.p{p}"] += scanned
    tr.counts[f"kernel.busy.p{p}"] += s.end - s.start


def _endo_maps(tr, s, args, kwargs, result):
    module = args[0] if args else kwargs["module"]
    tr.counts["endomorphisms.maps"] += module.endo_count_bound()


def _surj_tuples(tr, s, args, kwargs, result):
    if result.enumerated is None:
        return
    module = args[0] if args else kwargs["module"]
    d = args[1] if len(args) > 1 else kwargs["d"]
    # surj_prob walks d-multisets of elements
    tr.counts["endomorphisms.surj_tuples"] += math.comb(module.size + d - 1, d)


def _dirichlet_coeffs(tr, s, args, kwargs, result):
    if s.outer_layer:
        tr.counts["dirichlet.coeffs"] += getattr(result, "length", 1)


def _suite_checks(suite):
    def count(tr, s, args, kwargs, result):
        tr.counts[f"verify.{suite}.checks"] += len(result)

    return count


# -- installing the wrappers -------------------------------------------------


def _replace_everywhere(orig, new, undo):
    """Rebind every reference to ``orig`` held by a clzeta module, either as
    a module attribute or as a value of a module-level dict."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("clzeta") or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                undo.append((setattr, mod, attr, val))
                setattr(mod, attr, new)
            elif type(val) is dict:
                for key, v in list(val.items()):
                    if v is orig:
                        undo.append((dict.__setitem__, val, key, v))
                        val[key] = new


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark observes; returns ``restore``."""
    from clzeta import dirichlet, formulas, partitions, series, verify
    from clzeta.oracle import endomorphisms, framing, matrix_points, permutations, relations

    undo: list = []

    def fn(module, attr, name, on_exit=None):
        orig = getattr(module, attr)
        _replace_everywhere(orig, tracer.wrap(name, orig, on_exit), undo)

    fn(relations, "parse_relations", "relations.parse")
    fn(matrix_points, "_compile_for_kernel", "matrix_points.compile")
    fn(matrix_points, "count_matrix_points", "matrix_points.count")
    fn(matrix_points, "matrix_point_series", "matrix_points.series")
    fn(matrix_points, "_count_full", "matrix_points.full")
    kernel = matrix_points._kernels
    undo.append((setattr, kernel, "nullity_histogram", kernel.nullity_histogram))
    kernel.nullity_histogram = tracer.wrap(
        "kernel.nullity_histogram", kernel.nullity_histogram, _kernel_counts
    )

    ts = series.TruncSeries
    for attrs, name in (
        (("__mul__", "__rmul__"), "series.mul"),
        (("_mul_dense",), "series.mul_dense"),
        (("__add__", "__radd__"), "series.add"),
        (("inverse",), "series.inverse"),
        (("specialize",), "series.specialize"),
    ):
        wrapped = tracer.wrap(name, vars(ts)[attrs[0]])
        for attr in attrs:
            undo.append((setattr, ts, attr, vars(ts)[attr]))
            setattr(ts, attr, wrapped)
    fn(series, "pochhammer", "series.pochhammer")

    for attr in (
        "line_series",
        "fat_line_series",
        "dvr_polynomial_local_series",
        "plane_series_from_points",
        "feit_fine_series",
        "rank_series_at_powers",
        "normalized_rank_series_at_powers",
        "nonreduced_node_local_series",
        "nonreduced_node_plane_series",
        "rank_series_partition_sum",
        "rank_series_hypergeometric",
        "normalized_rank_series",
        "euler_inverse_pochhammer",
        "pochhammer_inf_specialized",
    ):
        fn(formulas, attr, f"formulas.{attr}")

    for attr in ("partitions", "partitions_up_to"):
        orig = getattr(partitions, attr)
        _replace_everywhere(orig, tracer.wrap_iterable("partitions.iter", orig), undo)
    for attr in ("partition_count", "aut_order", "end_order", "end_torsion_order"):
        fn(partitions, attr, f"partitions.{attr}")

    fn(endomorphisms, "enumerate_endomorphisms", "endomorphisms.enum", _endo_maps)
    fn(endomorphisms, "automorphisms", "endomorphisms.aut")
    fn(endomorphisms, "surj_prob", "endomorphisms.surj", _surj_tuples)
    fn(endomorphisms, "conj_classes_aut", "endomorphisms.conj")
    fn(endomorphisms, "module_groupoid_count", "endomorphisms.groupoid")
    fn(framing, "stable_framing_stats", "framing.stats")
    fn(framing, "relation_points", "framing.points")
    fn(permutations, "commuting_perm_count", "permutations.count")

    for attr in (
        "dedekind_zeta",
        "cohen_lenstra_local_zeta",
        "polynomial_ring_cl_zeta",
        "local_cl_coefficient",
        "euler_product",
    ):
        fn(dirichlet, attr, f"dirichlet.{attr}", _dirichlet_coeffs)

    for suite, orig in list(verify.SUITES.items()):
        _replace_everywhere(
            orig, tracer.wrap(f"verify.{suite}", orig, _suite_checks(suite)), undo
        )

    def restore():
        for setter, target, key, val in reversed(undo):
            setter(target, key, val)

    return restore
