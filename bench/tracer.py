"""In-process tracing of curvcheck from outside its source.

:class:`Tracer` wraps the public functions of each curvcheck module
(``_WRAPPED``).  A wrapper replaces the function in its defining module and in every
curvcheck module that imported it by name, because callers hold their own
bindings.  ``scipy.linalg.expm`` is wrapped on ``scipy.linalg`` itself,
which covers the calls in ``lie`` and the direct ones in ``principal``, and
``SplitMix64.next_raw`` gets a counter.  Uninstalling restores every
binding.

Each wrapped call records a span (name, start, end, parent span, thread)
and whether it raised.  A call that re-enters the function it is already
inside (the recursion of ``_symbolic.derivative``) is folded into the
outer span, so ``.calls`` counts outermost calls.  Spans stay in memory
until the traced repetition ends.  Self time is a span's duration minus
the time its child spans cover; children on other threads (the pool of
``run_suite``) count once however many overlap.  Pool threads run checks
side by side, so the self times of their spans are scaled by the wall time
the checks cover over the checks' summed duration: the layer self times
then split the wall time of ``run_suite`` at any ``--jobs``.  Bookkeeping
that is not timing (node counts, repeat detection) is done outside the
span and subtracted from the parent's self time, so it lands in
``trace.unattributed_s``.

Run as a script, it is the traced run of one workload::

    PYTHONPATH=src python bench/tracer.py --config CFG --seed 0 --jobs 1 \
        --seconds 10 --spans spans.jsonl --report report.json

It makes an untimed warm-up run, then alternates untraced and traced
repetitions of ``load_config`` + ``run_suite`` (+ ``emit`` when traced)
while another pair still fits in ``--seconds``.  It prints one JSON object
with the per-layer metrics of the median traced repetition, every report,
and whether every binding was restored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import statistics
import sys
import threading
import time

__all__ = ["Tracer", "layer_metric_names", "metric_unit", "traced_run"]

#: The functions wrapped, by module: every public function of the
#: construction modules and of ``sampling``, and the listed ones elsewhere.
#: The list is fixed here rather than read from ``__all__`` so that the
#: metric names stay the same when the program changes; a function that no
#: longer exists is not wrapped and reports zero.
_WRAPPED = {
    "config": ("load_config",),
    "exprdsl": ("parse", "max_indices"),
    "_symbolic": ("derivative", "substitute_fiber"),
    "numcore": ("evaluate", "gradient", "partial", "mixed_second"),
    "lie": ("exp", "adjoint", "bracket", "fiber_quotient"),
    "bundle": ("project", "embed", "horizontal_lift", "covariant_derivative",
               "lie_bracket", "vertical_projection_field", "horizontal_part_field",
               "nijenhuis_curvature", "curvature_coefficients", "pushforward",
               "is_parallel_morphism"),
    "prolong": ("theta", "pi", "affine_diff", "pushforward_second_jet",
                "vertical_connection", "second_covariant", "commutator_curvature"),
    "principal": ("omega_eval", "check_axiom", "vtriv_principal", "cartan_curvature",
                  "exponential_chart_connection", "curvature_cross_check",
                  "theta_bch", "theta_bch_verify"),
    "linear": ("expand_linear", "classical_curvature", "reduced_covariant",
               "linearity_detect", "linear_curvature_consistency", "scaling_morphism"),
    "sampling": ("sample_point", "sample_polynomial", "sample_christoffel",
                 "sample_section", "sample_transition", "sample_second_jet",
                 "sample_algebra_element"),
    "checks": ("run_suite", "run_check"),
    "report": ("emit",),
}

#: Layers whose self time is reported; they partition the traced checks_s.
_SELF_LAYERS = (
    "checks", "bundle", "prolong", "principal", "linear",
    "numcore", "symbolic", "exprdsl", "lie", "sampling",
)

#: Wrapped functions that start a phase: spans take the phase of the
#: innermost phase root open when they start, on any thread.
_PHASES = {"config.load_config": "setup", "checks.run_suite": "checks",
           "report.emit": "report"}

#: Counters the bookkeeping hooks keep.
_COUNTERS = ("rng.draws", "numcore.nodes_visited", "numcore.repeats", "exprdsl.parse.nodes",
             "prolong.vertical_connection.repeats",
             "principal.exponential_chart_connection.nodes")

CHECK_KINDS = (
    "curvature-coefficients", "nijenhuis-vs-coefficients", "commutator-identity",
    "theta-equivariance", "parallel-morphism", "connection-axiom",
    "cartan-cross-check", "bch-theta", "linearity", "linear-consistency",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric :meth:`Tracer.metrics` and :func:`traced_run`
    report."""
    names = ["config.load_s", "exprdsl.parse.calls", "exprdsl.parse_s",
             "exprdsl.parse.nodes", "exprdsl.max_indices.calls", "exprdsl.max_indices_s",
             "symbolic.derivative.calls", "symbolic.derivative_s",
             "symbolic.substitute_fiber_s",
             "prolong.vertical_connection.repeat_ratio",
             "principal.exponential_chart_connection_s",
             "principal.exponential_chart_connection.nodes",
             "prolong.vertical_connection_s"]
    for fn in _WRAPPED["numcore"]:
        names += [f"numcore.{fn}.calls", f"numcore.{fn}_s"]
    names += ["numcore.nodes_visited", "numcore.repeat_ratio", "numcore.errors",
              "lie.exp.calls", "lie.exp_s", "lie.expm.calls", "lie.expm_s",
              "lie.adjoint.calls"]
    names += [f"{layer}.self_s" for layer in _SELF_LAYERS]
    for mod in ("bundle", "prolong", "principal", "linear"):
        names += [f"{mod}.{fn}.calls" for fn in _WRAPPED[mod]]
    names += ["rng.draws"]
    names += [f"checks.{kind}_s" for kind in CHECK_KINDS]
    names += ["checks.critical_path_s", "checks.busy_share", "checks.check_p50_s",
              "checks.check_p90_s", "checks.check.count", "report.emit_s",
              "trace.checks_s", "trace.overhead_s", "trace.unattributed_s",
              "trace.spans"]
    return names


class _Span:
    __slots__ = ("label", "layer", "fn", "parent", "phase", "thread",
                 "start", "end", "child", "remote", "raised")

    def __init__(self, label, layer, fn, parent, phase, thread):
        self.label = label
        self.layer = layer
        self.fn = fn
        self.parent = parent
        self.phase = phase
        self.thread = thread
        self.start = self.end = self.child = 0.0
        self.remote: list[tuple[float, float]] = []  # child intervals on other threads
        self.raised = False

    def self_time(self) -> float:
        """Duration minus the time children cover: summed on its own
        thread, as a union of intervals on other threads (pool workers)."""
        return self.end - self.start - self.child - _covered(self.remote)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def _curvcheck_modules() -> list:
    return [module for key, module in sorted(sys.modules.items())
            if module is not None and key.partition(".")[0] == "curvcheck"]


def _children(node, classes):
    unary, binary, power = classes
    if isinstance(node, binary):
        return (node.left, node.right)
    if isinstance(node, unary):
        return (node.operand,)
    if isinstance(node, power):
        return (node.base,)
    return ()


class Tracer:
    """Wraps curvcheck's public functions while installed (a context
    manager) and turns the recorded spans into per-layer metrics."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.check_times: list[tuple[str, float]] = []
        # One counter dict per thread, so pool threads never wait on each
        # other to count; :meth:`metrics` sums them.
        self._thread_counts: list[dict[str, int]] = []
        self.bindings: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._phase = "idle"
        self._root = None
        self._node_memo: dict[int, tuple[object, int]] = {}
        self._fields_seen: dict[int, object] = {}
        self._lock = threading.Lock()
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        from curvcheck import exprdsl, rng

        try:
            import scipy.linalg as scipy_linalg
        except ImportError:
            scipy_linalg = None

        self._expr_classes = (exprdsl.Unary, exprdsl.Binary, exprdsl.Power)
        hooks = {
            "exprdsl.parse": (None, self._after_parse),
            "prolong.vertical_connection": (self._before_vertical, None),
            "principal.exponential_chart_connection": (None, self._after_chart),
            "checks.run_check": (self._before_check, self._after_check),
        }
        for fn in _WRAPPED["numcore"]:
            hooks[f"numcore.{fn}"] = (None, self._after_numcore)
        modules = _curvcheck_modules()
        for mod, name in ((mod, name) for mod, names in _WRAPPED.items() for name in names):
            module = importlib.import_module(f"curvcheck.{mod}")
            original = getattr(module, name, None)
            if original is None:
                continue
            layer = mod.lstrip("_")
            label = f"{layer}.{name}"
            before, after = hooks.get(label, (None, None))
            wrapper = self._wrap(original, label, layer, before, after)
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, attr, wrapper)
        if scipy_linalg is not None:
            expm = scipy_linalg.expm
            self._rebind(scipy_linalg, "expm", self._wrap(expm, "lie.expm", "lie", None, None))
        next_raw = rng.SplitMix64.next_raw
        counts = self._counts

        def counted_next_raw(generator):
            counts()["rng.draws"] += 1
            return next_raw(generator)

        self._rebind(rng.SplitMix64, "next_raw", counted_next_raw)

    def _rebind(self, owner, attr, wrapper) -> None:
        self.bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every rebound name holds its original object again and
        no curvcheck module still refers to a wrapper."""
        if any(getattr(owner, attr) is not original
               for owner, attr, original in self.bindings):
            return False
        return not any(
            id(value) in self._wrappers
            for module in _curvcheck_modules()
            for value in vars(module).values()
        )

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, label, layer, before, after):
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        phase = _PHASES.get(label)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1].fn is fn:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else tracer._root
            if before is not None:
                t0 = clock()
                before(args)
                if stack:
                    stack[-1].child += clock() - t0
            saved = (tracer._phase, tracer._root)
            span = _Span(label, layer, fn, parent, phase or tracer._phase,
                         threading.get_ident())
            if phase is not None:
                tracer._phase, tracer._root = phase, span
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if phase is not None:
                    tracer._phase, tracer._root = saved
                if parent is not None:
                    if parent.thread == span.thread:
                        parent.child += span.end - span.start
                    else:
                        parent.remote.append((span.start, span.end))
            if after is not None:
                t0 = clock()
                after(span, args, result)
                if stack:
                    stack[-1].child += clock() - t0
            return result

        self._wrappers[id(wrapper)] = wrapper
        return functools.update_wrapper(wrapper, fn)

    # -- bookkeeping hooks (run outside the spans they describe) ----------

    def _counts(self) -> dict[str, int]:
        """This thread's counters."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = dict.fromkeys(_COUNTERS, 0)
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def _unique_nodes(self, roots, seen=None) -> int:
        seen = set() if seen is None else seen
        before = len(seen)
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(_children(node, self._expr_classes))
        return len(seen) - before

    def _nodes_of(self, expr) -> int:
        hit = self._node_memo.get(id(expr))
        if hit is None or hit[0] is not expr:
            hit = (expr, self._unique_nodes([expr]))
            self._node_memo[id(expr)] = hit
        return hit[1]

    def _after_parse(self, span, args, result) -> None:
        self._counts()["exprdsl.parse.nodes"] += self._unique_nodes([result])

    def _before_vertical(self, args) -> None:
        field = args[0]
        with self._lock:
            if self._fields_seen.get(id(field)) is field:
                self._counts()["prolong.vertical_connection.repeats"] += 1
            self._fields_seen[id(field)] = field

    def _after_chart(self, span, args, result) -> None:
        seen: set[int] = set()
        self._counts()["principal.exponential_chart_connection.nodes"] += sum(
            self._unique_nodes(row, seen) for row in result.gamma
        )

    def _before_check(self, args) -> None:
        self._local.seen = {}

    def _after_check(self, span, args, result) -> None:
        self.check_times.append((args[0].kind, span.end - span.start))

    def _after_numcore(self, span, args, result) -> None:
        expr = args[0]
        nodes = self._nodes_of(expr)
        key = (span.label, id(expr)) + tuple(args[1:])
        seen = getattr(self._local, "seen", None)
        counts = self._counts()
        counts["numcore.nodes_visited"] += nodes
        if seen is not None:
            if key in seen:
                counts["numcore.repeats"] += 1
            else:
                seen[key] = expr

    # -- results ------------------------------------------------------------

    def metrics(self, checks_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction;
        ``checks_s`` is the traced report's ``duration_seconds``."""
        calls: dict[tuple[str, str], int] = {}
        total: dict[tuple[str, str], float] = {}
        self_by_layer = dict.fromkeys(_SELF_LAYERS, 0.0)
        errors = 0
        suite_threads = {s.thread for s in self.spans if s.label == "checks.run_suite"}
        pooled = [(s.start, s.end) for s in self.spans
                  if s.label == "checks.run_check" and s.thread not in suite_threads]
        pool_scale = _ratio(_covered(pooled), sum(end - start for start, end in pooled))
        for span in self.spans:
            key = (span.phase, span.label)
            duration = span.end - span.start
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + duration
            if span.phase == "checks":
                scale = 1.0 if span.thread in suite_threads else pool_scale
                self_by_layer[span.layer] += scale * span.self_time()
                if span.raised and span.layer == "numcore":
                    errors += 1

        def n(label, phase="checks"):
            return calls.get((phase, label), 0)

        def s(label, phase="checks"):
            return total.get((phase, label), 0.0)

        c = {name: sum(counts[name] for counts in self._thread_counts) for name in _COUNTERS}
        out = {
            "config.load_s": s("config.load_config", "setup"),
            "exprdsl.parse.calls": n("exprdsl.parse", "setup"),
            "exprdsl.parse_s": s("exprdsl.parse", "setup"),
            "exprdsl.parse.nodes": c["exprdsl.parse.nodes"],
            "exprdsl.max_indices.calls": n("exprdsl.max_indices"),
            "exprdsl.max_indices_s": s("exprdsl.max_indices"),
            "symbolic.derivative.calls": n("symbolic.derivative"),
            "symbolic.derivative_s": s("symbolic.derivative"),
            "symbolic.substitute_fiber_s": s("symbolic.substitute_fiber"),
            "prolong.vertical_connection_s": s("prolong.vertical_connection"),
            "prolong.vertical_connection.repeat_ratio": _ratio(
                c["prolong.vertical_connection.repeats"], n("prolong.vertical_connection")),
            "principal.exponential_chart_connection_s":
                s("principal.exponential_chart_connection"),
            "principal.exponential_chart_connection.nodes":
                c["principal.exponential_chart_connection.nodes"],
        }
        numcore_calls = 0
        for fn in _WRAPPED["numcore"]:
            out[f"numcore.{fn}.calls"] = n(f"numcore.{fn}")
            out[f"numcore.{fn}_s"] = s(f"numcore.{fn}")
            numcore_calls += n(f"numcore.{fn}")
        out["numcore.nodes_visited"] = c["numcore.nodes_visited"]
        out["numcore.repeat_ratio"] = _ratio(c["numcore.repeats"], numcore_calls)
        out["numcore.errors"] = errors
        for fn in ("exp", "expm"):
            out[f"lie.{fn}.calls"] = n(f"lie.{fn}")
            out[f"lie.{fn}_s"] = s(f"lie.{fn}")
        out["lie.adjoint.calls"] = n("lie.adjoint")
        for layer in _SELF_LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        for mod in ("bundle", "prolong", "principal", "linear"):
            for fn in _WRAPPED[mod]:
                out[f"{mod}.{fn}.calls"] = n(f"{mod}.{fn}")
        out["rng.draws"] = c["rng.draws"]
        for kind in CHECK_KINDS:
            out[f"checks.{kind}_s"] = sum(t for k, t in self.check_times if k == kind)
        times = sorted(t for _, t in self.check_times)
        out["checks.critical_path_s"] = times[-1] if times else 0.0
        out["checks.busy_share"] = _ratio(sum(times), checks_s)
        out["checks.check_p50_s"] = statistics.median(times) if times else 0.0
        out["checks.check_p90_s"] = (
            statistics.quantiles(times, n=10)[8] if len(times) > 1 else out["checks.check_p50_s"]
        )
        out["checks.check.count"] = len(times)
        out["report.emit_s"] = s("report.emit", "report")
        out["trace.checks_s"] = checks_s
        out["trace.unattributed_s"] = checks_s - sum(self_by_layer.values())
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines ``[id, name, phase, start, end,
        parent id, thread, raised]``, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent))
                handle.write(json.dumps([
                    i, span.label, span.phase, round(span.start - origin, 9),
                    round(span.end - origin, 9), parent, span.thread, span.raised,
                ]) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "1"
    return "count"


def traced_run(config_path: str, seed: int, jobs: int, seconds: float,
               spans_path: str, report_path: str) -> dict:
    """Warm up, then alternate untraced and traced repetitions while
    another pair fits in ``seconds`` (at least one pair).

    ``seed`` replaces the config's suite seed, as ``curvcheck check --seed``
    does.  Calls go through the module attributes, so the traced
    repetitions reach the wrappers; every repetition loads the config
    afresh.
    """
    from curvcheck import checks, config, report

    def suite():
        loaded = dataclasses.replace(config.load_config(config_path), seed=seed)
        return checks.run_suite(loaded, jobs=jobs)

    reports = [report.to_json_dict(suite())]
    untraced, traced, restored = [], [], True
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Stop before a pair of repetitions that would end past the deadline.
    while not traced or time.perf_counter() + last <= deadline:
        begin = time.perf_counter()
        result = suite()
        untraced.append(result.duration_seconds)
        reports.append(report.to_json_dict(result))
        tracer = Tracer()
        with tracer:
            result = suite()
            report.emit(result, "json", report_path)
        restored = restored and tracer.restored()
        traced.append(tracer.metrics(result.duration_seconds))
        reports.append(report.to_json_dict(result))
        tracer.write_spans(spans_path)
        last = time.perf_counter() - begin
    # All metrics come from one repetition, the median by traced checks_s,
    # so that its layer self times and trace.unattributed_s still add up.
    traced.sort(key=lambda rep: rep["trace.checks_s"])
    metrics = dict(traced[(len(traced) - 1) // 2])
    metrics["trace.overhead_s"] = metrics["trace.checks_s"] - statistics.median(untraced)
    return {"metrics": metrics, "reports": reports, "restored": restored,
            "repetitions": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True, help="write spans here (JSON lines)")
    parser.add_argument("--report", required=True, help="where traced runs emit")
    args = parser.parse_args(argv)
    result = traced_run(args.config, args.seed, args.jobs, args.seconds, args.spans, args.report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
