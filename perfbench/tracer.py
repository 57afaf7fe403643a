"""Per-layer spans around nkoszul's public functions, installed from outside.

The program is not instrumented: :class:`Tracer` replaces each function
named in ``SPANS`` by a timing wrapper, in its defining module or class and
in every ``nkoszul.*`` module that imported it by name (``manin`` binds
``koszul.dual_koszul_subspace`` and ``mmt`` binds
``algebras.enumerate_admissible`` that way).  A span's self time is its
duration minus the durations of the spans it directly encloses, so recursive
and nested calls are never counted twice; time inside the traced window but
in no span is ``unattributed``.

Each span also updates exact work counts (rows offered to an echelon, rows
kept, nonzeros in, cache hits, ...), which repeat exactly for the same input.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


def _nnz(vec):
    return sum(1 for v in vec.values() if v)


def _observe_add(counts, name, args, result):
    counts[name + ".kept"] += bool(result)
    counts[name + ".nnz_in"] += _nnz(args[1])


def _observe_rank(counts, name, args, result):
    rows = args[0].rows
    counts[name + ".rows_in"] += len(rows)
    counts[name + ".nnz_in"] += sum(_nnz(r) for r in rows)


def _observe_differential(counts, name, args, result):
    counts[name + ".rows"] += len(result.rows)
    counts[name + ".nnz"] += sum(_nnz(r) for r in result.rows)


def _observe_dual(counts, name, args, result):
    counts[name + ".dim_out"] += result.dim


def _observe_g_table(counts, name, args, result):
    counts[name + ".words"] += len(result)


def _add_span_name(args):
    mode = "reduced_mode" if args[0].reduced else "rank_mode"
    return "linalg.Echelon.add." + mode


# (module, qualified name, extra exact counts, observer); span names are
# "<module>.<qualified name>" except for Echelon.add, which is split by mode.
SPANS = [
    ("linalg", "Echelon.add", ("kept", "nnz_in"), _observe_add),
    ("linalg", "Echelon.reduce", (), None),
    ("linalg", "rank", ("rows_in", "nnz_in"), _observe_rank),
    ("linalg", "intersect", (), None),
    ("linalg", "kernel", (), None),
    ("linalg", "BasisSolver.__init__", (), None),
    ("linalg", "BasisSolver.coordinates", (), None),
    ("homog", "AlgebraPresentation.ideal_rank", (), None),
    ("homog", "AlgebraPresentation.ideal_component", (), None),
    ("homog", "AlgebraPresentation.normal_basis", (), None),
    ("homog", "AlgebraPresentation.dim_component", (), None),
    ("homog", "AlgebraPresentation.reduce", (), None),
    ("homog", "AlgebraPresentation.class_of_word", ("distinct",), None),
    ("koszul", "dual_koszul_subspace", ("dim_out",), _observe_dual),
    ("koszul", "differential", ("rows", "nnz"), _observe_differential),
    ("koszul", "homology_report", (), None),
    ("koszul", "koszul_certificate", (), None),
    ("mmt", "g_table", ("words",), _observe_g_table),
    ("mmt", "check_specializable", (), None),
    ("mmt", "nmt_rhs_denominator", (), None),
    ("manin", "build_end", (), None),
    ("manin", "chi_A", (), None),
    ("manin", "chi_J", (), None),
    ("manin", "ferm_convention", (), None),
    ("manin", "kmt_check", (), None),
    ("series", "UniSeries.__mul__", (), None),
    ("series", "MultiSeries.__mul__", (), None),
    ("series", "MultiSeries.invert", (), None),
    ("algebras", "enumerate_admissible", (), None),
    ("cli", "main", (), None),
]

ADD_MODES = ("rank_mode", "reduced_mode")
CLASS_OF_WORD = "homog.AlgebraPresentation.class_of_word"


def span_names():
    for module, qualname, counts, _ in SPANS:
        base = f"{module}.{qualname}"
        if qualname == "Echelon.add":
            for mode in ADD_MODES:
                yield f"{base}.{mode}", counts
        else:
            yield base, counts


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order.

    Units mark exactness: ``count`` and ``ratio`` (a ratio of two counts)
    repeat exactly for the same input; ``s`` and ``s/s`` are timings.
    """
    specs = []
    for name, counts in span_names():
        calls = "offered" if name.startswith("linalg.Echelon.add.") else "calls"
        specs.append((f"{name}.{calls}", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        for c in counts:
            specs.append((f"{name}.{c}", "count", "lower"))
        if calls == "offered":
            specs.append((f"{name}.kept_ratio", "ratio", "higher"))
        if name == CLASS_OF_WORD:
            specs.append((f"{name}.hit_ratio", "ratio", "higher"))
    specs += [
        ("scalar.sympy_tasks.verdict_s", "s", "lower"),
        ("scalar.fraction_tasks.verdict_s", "s", "lower"),
        ("wall.verdict_s", "s", "lower"),
        ("wall.setup_s", "s", "lower"),
        ("wall.calibration_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_ratio", "s/s", "lower"),
    ]
    return specs


def exact_metric_names():
    return [name for name, unit, _ in metric_specs() if unit in ("count", "ratio")]


def pass_metrics(raw):
    """Per-layer metrics of one traced pass from :meth:`Tracer.snapshot`.

    The scalar and overhead metrics need an untraced pass and are added by
    the caller.
    """
    calls, self_ns, counts = raw["calls"], raw["self_ns"], raw["counts"]
    out = {}
    for name, extra in span_names():
        n = calls.get(name, 0)
        if name.startswith("linalg.Echelon.add."):
            out[f"{name}.offered"] = n
            kept = counts.get(f"{name}.kept", 0)
            out[f"{name}.kept_ratio"] = kept / n if n else 0.0
        else:
            out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        for c in extra:
            out[f"{name}.{c}"] = counts.get(f"{name}.{c}", 0)
    n = calls.get(CLASS_OF_WORD, 0)
    distinct = counts.get(f"{CLASS_OF_WORD}.distinct", 0)
    out[f"{CLASS_OF_WORD}.hit_ratio"] = 1 - distinct / n if n else 0.0
    out["trace.unattributed_s"] = raw["unattributed_ns"] / 1e9
    return out


class Tracer:
    """Span timer and work counter over the layers in ``SPANS``.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  Each ``start()``/``stop()`` pair adds a window
    to the traced time, which splits into span self times plus unattributed
    time.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.window_ns = 0
        self._top_ns = 0
        self._t0 = None
        self._stack = []
        self._seen = {}  # algebra -> words whose class was already asked for
        self._patched = []  # (owner, attribute, original)
        self._originals = {}  # id(original) -> (original, wrapper)

    # ------------------------------------------------------------------
    # installing

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        for module, qualname, _, observe in SPANS:
            owner = importlib.import_module(f"nkoszul.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if qualname == "Echelon.add":
                name = _add_span_name
            elif qualname == "AlgebraPresentation.class_of_word":
                name = CLASS_OF_WORD
                observe = self._observe_word
            else:
                name = f"{module}.{qualname}"
            wrapper = self._wrap(name, original, observe)
            self._patch(owner, attr, original, wrapper)
            self._originals[id(original)] = (original, wrapper)
        for mod in _nkoszul_modules():
            for key, value in list(vars(mod).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, key, value, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._originals.clear()

    def uncovered(self):
        """Module bindings (``module.name``) that still hold an original."""
        bad = []
        for mod in _nkoszul_modules():
            for key, value in vars(mod).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    bad.append(f"{mod.__name__}.{key}")
        return bad

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    # ------------------------------------------------------------------
    # measuring

    def start(self):
        self._t0 = time.perf_counter_ns()

    def stop(self):
        self.window_ns += time.perf_counter_ns() - self._t0

    @property
    def unattributed_ns(self):
        return self.window_ns - self._top_ns

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "window_ns": self.window_ns,
            "unattributed_ns": self.unattributed_ns,
        }

    def _observe_word(self, counts, name, args, result):
        seen = self._seen.setdefault(args[0], set())
        if args[1] not in seen:
            seen.add(args[1])
            counts[name + ".distinct"] += 1

    def _wrap(self, name, fn, observe):
        stack = self._stack
        clock = time.perf_counter_ns
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [0]  # time spent in directly enclosed spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, span, args, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                calls[span] += 1
                self_ns[span] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer._top_ns += dt

        return wrapper


def _nkoszul_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "nkoszul" or key.startswith("nkoszul."))
    ]
