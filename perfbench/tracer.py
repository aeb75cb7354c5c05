"""Outside-in span tracer for the privustat library.

The tracer substitutes a timing wrapper for each library entry point listed in
``ENTRY_POINTS``, in every loaded ``privustat`` module that holds the name, so
that calls made inside the library (``coinpress.all_tuples``, not only
``ustat.all_tuples``) are seen as well.  Methods are wrapped on their class.
Each call records a span (name, start, end, parent span, op id) in memory;
counts are recorded at the same boundaries, in total and per op.  Nothing is
written until the run ends.  An entry point that cannot be found is reported as absent and the run
goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


@dataclass(frozen=True)
class EntryPoint:
    """One library function or method to wrap.

    ``span`` is the span name, or None for a counter that records no span.
    ``pre(tracer, args)`` may replace call arguments and returns the
    (possibly changed) ``BoundArguments``; ``post(tracer, args, result)``
    records counts and returns the (possibly wrapped) result.
    """

    span: Optional[str]
    module: str
    attr: str  # "func" or "Class.method"
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_counts: defaultdict = defaultdict(Counter)  # op id -> counts
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def add(self, key: str, value: int = 1) -> None:
        """Add to a count, in the run total and in the current op's counts."""
        self.counts[key] += value
        self.op_counts[self.op][key] += value

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, name: Optional[str], fn, pre=None, post=None):
        tracer = self
        signature = inspect.signature(fn) if (pre or post) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if pre is not None:
                    bound = pre(tracer, bound)
                args, kwargs = bound.args, bound.kwargs
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op)
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    tracer._stack.pop()
            if post is not None:
                result = post(tracer, bound, result)
            return result

        return wrapper

    def install(self, entries) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "privustat" or k.startswith("privustat.")]
        for entry in entries:
            key = f"{entry.module}.{entry.attr}"
            try:
                owner = importlib.import_module(entry.module)
                *path, attr = entry.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            wrapper = self.wrap(entry.span, original, entry.pre, entry.post)
            if path:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self, by_op: bool = False) -> dict:
        """Span duration minus the time covered by its child spans, summed by name.

        With ``by_op`` the keys are (op id, name).
        """
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[(span.op, span.name) if by_op else span.name] += (span.end - span.start) - child[i]
        return dict(out)

    def span_table(self) -> dict:
        """Every span, column-wise: name, start and end (seconds since the first span), parent, op."""
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "name": [s.name for s in self.spans],
            "start": [s.start - origin for s in self.spans],
            "end": [s.end - origin for s in self.spans],
            "parent": [s.parent for s in self.spans],
            "op": [s.op for s in self.spans],
        }

    def covered_by_op(self) -> dict[int, float]:
        """Wall time covered by top-level spans, per op id."""
        out: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is None:
                out[span.op] += span.end - span.start
        return dict(out)


# ---------------------------------------------------------------------------
# count hooks
# ---------------------------------------------------------------------------

def _family_rows(tracer, args, family):
    tracer.add("ustat.all_tuples.rows", family.size)
    tracer.add("ustat.family.bytes", family.subsets.nbytes)
    return family


def _kernel_evals(tracer, args, values):
    tracer.add("ustat.kernel_values.evals", args.arguments["family"].size)
    return values


def _subsample(tracer, args, family):
    tracer.add("ustat.subsample_family.rows", family.size)
    # the family draws one uniform per (subset, index) pair
    tracer.add("ustat.subsample_family.draws", family.size * args.arguments["n"])
    return family


def _step(tracer, args, result):
    tracer.add("coinpress.steps")
    tracer.add("coinpress.clipped_values", int(args.arguments["values"].size))
    return result


def _preconditions(tracer, args, problems):
    if problems:
        tracer.add("coinpress.precondition_warnings")
    return problems


def _reweighting(span_name):
    def post(tracer, args, summary):
        def count(tracer, args, value):
            tracer.add("hajek.reweight.calls")
            return value

        summary.reweight = tracer.wrap(span_name, summary.reweight, post=count)
        return summary

    return post


def _triangle(tracer, args, summary):
    n = args.arguments["graph"].n
    tracer.add("applications.triangle_summary.flops", 2 * n**3)  # dense A @ A
    # float64 copy of A, float64 A @ A, and the int8 adjacency it reads
    tracer.add("applications.triangle_summary.bytes", 17 * n * n)
    return _reweighting("applications.triangle_reweight")(tracer, args, summary)


def _n_bad(tracer, args, state):
    tracer.add("hajek.n_bad", int(state.bad.size))
    return state


def _edges(tracer, args, graph):
    tracer.add("applications.edges", int(graph.adjacency.sum()) // 2)
    return graph


def _draws(size_arg):
    def post(tracer, args, value):
        tracer.add("dp.noise.draws", 1 if size_arg is None else int(args.arguments[size_arg]))
        return value

    return post


def _ledger(tracer, args, result):
    tracer.add("dp.ledger.entries")
    return result


def _chunk(tracer, report) -> None:
    tracer.add("boosting.chunks")
    if getattr(report, "estimate", None) is not None or hasattr(report, "reject"):
        tracer.add("boosting.useful_chunks")


def _boosted_chunk(tracer, args, result):
    if tracer.current() == "applications.boosted":
        _chunk(tracer, result)
    return result


def _mom_estimator(tracer, args):
    estimator = args.arguments["estimator"]

    def counted(*a, **kw):
        report = estimator(*a, **kw)
        _chunk(tracer, report)
        return report

    args.arguments["estimator"] = counted
    return args


def _trial(tracer, args, row):
    tracer.add("harness.experiments.trials")
    return row


def _audit_pairs(tracer, args):
    # the audit enumerates every dataset and neighbour before it reports
    n, alphabet = args.arguments["n"], len(tuple(args.arguments["alphabet"]))
    tracer.add("harness.audits.datasets", alphabet**n)
    tracer.add("harness.audits.pairs", alphabet**n * n * (alphabet - 1))
    return args


ENTRY_POINTS = [
    EntryPoint("ustat.all_tuples", "privustat.ustat", "all_tuples", post=_family_rows),
    EntryPoint("ustat.kernel_values", "privustat.ustat", "kernel_values", post=_kernel_evals),
    EntryPoint("ustat.projections", "privustat.ustat", "projections_from_values"),
    EntryPoint("ustat.subsample_family", "privustat.ustat", "subsample_family", post=_subsample),
    EntryPoint("ustat.check_regularity", "privustat.ustat", "SubsetFamily.check_regularity"),
    EntryPoint("coinpress.ustat_mean", "privustat.coinpress", "ustat_mean"),
    EntryPoint(None, "privustat.coinpress", "ustat_one_step", post=_step),
    EntryPoint(None, "privustat.coinpress", "check_preconditions", post=_preconditions),
    EntryPoint("hajek.summary", "privustat.hajek", "summary_from_values", post=_reweighting("hajek.reweight")),
    EntryPoint("hajek.state", "privustat.hajek", "hajek_state", post=_n_bad),
    EntryPoint("hajek.smooth_sensitivity", "privustat.hajek", "smooth_sensitivity"),
    EntryPoint("hajek.release", "privustat.hajek", "release_from_summary"),
    EntryPoint(
        "applications.collision_summary", "privustat.applications", "collision_summary",
        post=_reweighting("applications.collision_reweight"),
    ),
    EntryPoint("applications.triangle_summary", "privustat.applications", "triangle_summary", post=_triangle),
    EntryPoint("applications.induced", "privustat.applications", "GeometricGraph.induced"),
    EntryPoint("applications.read_edge_list", "privustat.applications", "read_edge_list", post=_edges),
    EntryPoint("applications.read_categories", "privustat.applications", "read_categories"),
    EntryPoint("applications.boosted", "privustat.applications", "boosted_uniformity_test"),
    EntryPoint("applications.boosted", "privustat.applications", "boosted_triangle_density"),
    EntryPoint(None, "privustat.applications", "uniformity_test", post=_boosted_chunk),
    EntryPoint(None, "privustat.applications", "private_triangle_density", post=_boosted_chunk),
    EntryPoint("boosting.median_of_means", "privustat.boosting", "median_of_means", pre=_mom_estimator),
    EntryPoint("dp.noise", "privustat.dp", "laplace", post=_draws(None)),
    EntryPoint("dp.noise", "privustat.dp", "laplace_draws", post=_draws("size")),
    EntryPoint("dp.noise", "privustat.dp", "quartic_draws", post=_draws("size")),
    EntryPoint("dp.ledger", "privustat.dp", "PrivacyBudget.spend", post=_ledger),
    EntryPoint("harness.experiments.run_trial", "privustat.harness.experiments", "run_trial", post=_trial),
    EntryPoint("harness.cli.main", "privustat.harness.cli", "main"),
    EntryPoint("harness.audits.smoothness_audit", "privustat.harness.audits", "smoothness_audit", pre=_audit_pairs),
    EntryPoint("harness.audits.noise_gof", "privustat.harness.audits", "noise_gof"),
]

# (metric name, unit) in report order; "*.self_s" metrics come from spans
PER_LAYER = [
    ("ustat.all_tuples.self_s", "s"), ("ustat.all_tuples.rows", "count"), ("ustat.family.bytes", "B"),
    ("ustat.kernel_values.self_s", "s"), ("ustat.kernel_values.evals", "count"),
    ("ustat.projections.self_s", "s"),
    ("ustat.subsample_family.self_s", "s"), ("ustat.subsample_family.rows", "count"),
    ("ustat.subsample_family.draws", "count"),
    ("ustat.check_regularity.self_s", "s"),
    ("coinpress.ustat_mean.self_s", "s"), ("coinpress.steps", "count"),
    ("coinpress.clipped_values", "count"), ("coinpress.precondition_warnings", "count"),
    ("hajek.summary.self_s", "s"), ("hajek.state.self_s", "s"),
    ("hajek.smooth_sensitivity.self_s", "s"), ("hajek.release.self_s", "s"),
    ("hajek.reweight.self_s", "s"), ("hajek.reweight.calls", "count"), ("hajek.n_bad", "count"),
    ("applications.collision_reweight.self_s", "s"), ("applications.triangle_reweight.self_s", "s"),
    ("applications.collision_summary.self_s", "s"),
    ("applications.triangle_summary.self_s", "s"), ("applications.triangle_summary.flops", "flop"),
    ("applications.triangle_summary.bytes", "B"), ("applications.induced.self_s", "s"),
    ("applications.read_edge_list.self_s", "s"), ("applications.read_categories.self_s", "s"),
    ("applications.edges", "count"), ("harness.cli.main.self_s", "s"),
    ("dp.noise.self_s", "s"), ("dp.noise.draws", "count"),
    ("dp.ledger.self_s", "s"), ("dp.ledger.entries", "count"),
    ("boosting.median_of_means.self_s", "s"), ("applications.boosted.self_s", "s"),
    ("boosting.chunks", "count"), ("boosting.useful_ratio", "1"),
    ("harness.experiments.run_trial.self_s", "s"), ("harness.experiments.trials", "count"),
    ("harness.audits.smoothness_audit.self_s", "s"), ("harness.audits.noise_gof.self_s", "s"),
    ("harness.audits.datasets", "count"), ("harness.audits.pairs", "count"),
    ("trace.unattributed_s", "s"), ("trace.overhead_ratio", "1"),
]
