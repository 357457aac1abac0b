"""Outside-in tracer for the benchmark's traced run.

Each wrap point replaces one entry point of the package at the name its
caller binds (several modules import by name, so wrapping only the
defining module would record nothing) with a function that records a span
and derives counts from the call's arguments and return value.  Spans are
kept in memory as ``[name, start, end, parent, job]`` rows; the layer
metrics and self times are computed from them after each pass.
"""

import collections
import contextlib
import functools
import importlib
import os
import time

import numpy as np


class TraceError(RuntimeError):
    """A wrap point is missing or the trace failed its self-check."""


class Tracer:
    def __init__(self):
        self.wraps = []        # (label, span name, workloads expected to reach it)
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = collections.Counter()
        self.calls = collections.Counter()     # per wrap label
        self.maxima = collections.defaultdict(float)
        self.problems = collections.defaultdict(list)   # job -> messages

    # -- spans ---------------------------------------------------------------
    def reset(self):
        """Forget the previous pass; the wrappers keep writing to the same containers."""
        for box in (self.spans, self.stack, self.counts, self.calls, self.maxima,
                    self.problems):
            box.clear()
        self.job = None

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping --------------------------------------------------------------
    def wrap(self, target, name, where, before=None, after=None):
        """Wrap ``module:attr`` or ``module:Class.method`` with a span ``name``.

        ``where`` names the workloads on which the wrap point must record at
        least one call.  ``before(args, kwargs)`` returns a state handed to
        ``after(args, kwargs, out, state)``, which derives the counts.
        """
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise TraceError(f"wrap point {target} not found")
            orig = owner.__dict__[attr]
        else:
            if not hasattr(owner, attr):
                raise TraceError(f"wrap point {target} not found")
            orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.calls[target] += 1
            state = before(args, kwargs) if before is not None else None
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, out, state)
            return out

        setattr(owner, attr, wrapper)
        self.wraps.append((target, name, frozenset(where)))

    def count_family(self, fam):
        """Count the points passed to a density family's evaluator."""
        fn = fam.fn
        counts = self.counts

        def counted(x, *coords):
            out = fn(x, *coords)
            counts["density.rho_points"] += int(np.size(out))
            return out

        object.__setattr__(fam, "fn", counted)
        return fam

    # -- results ---------------------------------------------------------------
    def span_times(self):
        """(inclusive seconds per span name, self seconds per span name).

        Inclusive time counts only the outermost span of each name on a
        stack, so a re-entrant call is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        inclusive = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for name, start, end, parent, _ in spans:
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += dur
        for i, (name, start, end, _, _) in enumerate(spans):
            own[name] += (end - start) - child[i]
        return dict(inclusive), dict(own)

    def missing_wraps(self, workload):
        return [label for label, _, where in self.wraps
                if workload in where and self.calls[label] == 0]

    def span_count(self, prefix):
        return sum(1 for s in self.spans if s[0].startswith(prefix))


def install(tracer):
    """Install every wrap point the per-layer metrics read."""
    counts, maxima = tracer.counts, tracer.maxima
    ALL = ("interval_verify", "interval_scan", "cylinder_flow")
    ONE_D = ("interval_verify", "interval_scan")
    CLI = ("interval_scan", "cylinder_flow")
    SCAN = ("interval_scan",)

    def add(key, n=1):
        counts[key] += n

    def lookup(build_key):
        def before(args, kwargs):
            return counts[build_key]

        def after(args, kwargs, out, state):
            add("transport.lookups")
            if counts[build_key] == state:
                add("transport.cache_hits")
        return before, after

    def npoints(value):
        arr = np.asarray(value)
        return int(arr.shape[0]) if arr.ndim else 1

    def solve_after(args, kwargs, out, state):
        add("moser.poisson_solves")
        add("moser.cg_iters", int(out.iterations))
        residual = float(out.residual)
        maxima["moser.poisson_residual_max"] = max(
            maxima["moser.poisson_residual_max"], residual)
        tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-10)
        if not residual <= tol:
            tracer.problems[tracer.job].append(
                f"Poisson residual {residual:.3e} above solver_tol {tol:g}")

    def flow_after(args, kwargs, out, state):
        steps = kwargs.get("steps", args[2] if len(args) > 2 else 256)
        points = kwargs.get("points", args[1] if len(args) > 1 else None)
        add("moser.rk4_point_steps", npoints(points) * int(steps))
        add("moser.clamp_events", int(out[1]))

    def pushforward_after(args, kwargs, out, state):
        add("transport.pushforward_checks")
        maxima["transport.pushforward_l1_max"] = max(
            maxima["transport.pushforward_l1_max"], float(out["l1_error"]))

    def write_after(args, kwargs, out, state):
        add("reports.bytes", os.path.getsize(args[0]))

    def family_after(args, kwargs, out, state):
        tracer.count_family(out)

    w = tracer.wrap
    # package bindings used by library callers
    w("moser_transport:build_representation", "transport.build_representation",
      ("interval_verify",))
    w("moser_transport:builtin_family", "density.builtin_family", ("interval_verify",),
      after=family_after)
    # moser_transport.transport imports its stages by name
    w("moser_transport.transport:build_collar_map", "collar.build", ONE_D,
      after=lambda a, k, o, s: add("collar.builds"))
    w("moser_transport.transport:make_reference", "density.make_reference", ONE_D)
    w("moser_transport.transport:moser_map_from_values", "moser.build", ALL,
      after=lambda a, k, o, s: add("moser.builds"))
    # moser_transport.cli imports everything it drives by name
    w("moser_transport.cli:parse_config", "config.parse", CLI)
    w("moser_transport.cli:build_family", "config.build_family", CLI, after=family_after)
    w("moser_transport.cli:build_representation", "transport.build_representation", CLI)
    w("moser_transport.cli:ck_floor_scan", "transport.ck_scan", CLI)
    w("moser_transport.cli:make_reference", "density.make_reference", SCAN)
    w("moser_transport.cli:check_decay_assumptions", "density.check_assumptions", SCAN)
    w("moser_transport.cli:lipschitz_obstruction", "diagnostics.lipschitz", SCAN)
    w("moser_transport.cli:expectation_curve", "diagnostics.expectation", SCAN)
    w("moser_transport.cli:write_json", "reports.write", CLI, after=write_after)
    w("moser_transport.cli:write_csv", "reports.write", CLI, after=write_after)
    # module-global calls inside moser.py and diagnostics.py
    w("moser_transport.moser:solve_neumann_poisson", "moser.poisson", ALL,
      after=solve_after)
    w("moser_transport.moser:integrate_flow", "moser.rk4", ALL, after=flow_after)
    w("moser_transport.diagnostics:w_infinity_1d", "diagnostics.w_inf", SCAN,
      after=lambda a, k, o, s: add("diagnostics.w_inf_pairs"))
    # methods
    w("moser_transport.collar:CollarMap.g_batch", "collar.g_batch", ONE_D,
      after=lambda a, k, o, s: add("collar.g_points", npoints(a[1])))
    w("moser_transport.moser:MoserMap.evaluate", "moser.query", ALL)
    w("moser_transport.transport:TransportFamily.collar_at", "transport.collar_at", ONE_D,
      *lookup("collar.builds"))
    w("moser_transport.transport:TransportFamily.moser_at", "transport.moser_at", ALL,
      *lookup("moser.builds"))
    w("moser_transport.transport:TransportFamily.map_values", "transport.map_values", ALL,
      after=lambda a, k, o, s: add("transport.map_values_points", npoints(a[2])))
    w("moser_transport.transport:TransportFamily.pushforward_check",
      "transport.pushforward", ONE_D, after=pushforward_after)
    w("moser_transport.transport:TransportFamily.pushforward_check_2d",
      "transport.pushforward", ("cylinder_flow",), after=pushforward_after)
    w("moser_transport.density:ReferenceDensity.integral", "density.ref_integral", ONE_D,
      after=lambda a, k, o, s: add("density.ref_integral_points", int(np.size(a[1]))))
    w("moser_transport.expressions:ExpressionAst.evaluate", "expressions.eval", CLI,
      after=lambda a, k, o, s: add("expressions.evals"))


# Counts that must repeat exactly between two traced passes of one run.
EXACT_COUNTS = ("collar.builds", "collar.g_points", "moser.builds", "moser.cg_iters",
                "moser.rk4_point_steps", "transport.cache_hit_ratio")


def layer_metrics(tracer):
    """Per-layer metric values of one traced pass."""
    inclusive, _ = tracer.span_times()
    c, mx = tracer.counts, tracer.maxima

    def t(name):
        return inclusive.get(name, 0.0)

    lookups = c["transport.lookups"]
    return {
        "collar.build_s": t("collar.build"),
        "collar.builds": c["collar.builds"],
        "collar.g_batch_s": t("collar.g_batch"),
        "collar.g_points": c["collar.g_points"],
        "density.ref_integral_s": t("density.ref_integral"),
        "density.ref_integral_points": c["density.ref_integral_points"],
        "density.rho_points": c["density.rho_points"],
        "density.make_reference_s": t("density.make_reference"),
        "density.check_assumptions_s": t("density.check_assumptions"),
        "moser.build_s": t("moser.build"),
        "moser.builds": c["moser.builds"],
        "moser.query_s": t("moser.query"),
        "moser.rk4_point_steps": c["moser.rk4_point_steps"],
        "moser.clamp_events": c["moser.clamp_events"],
        "moser.poisson_s": t("moser.poisson"),
        "moser.poisson_solves": c["moser.poisson_solves"],
        "moser.cg_iters": c["moser.cg_iters"],
        "moser.poisson_residual_max": mx["moser.poisson_residual_max"],
        "transport.pushforward_s": t("transport.pushforward"),
        "transport.pushforward_checks": c["transport.pushforward_checks"],
        "transport.pushforward_l1_max": mx["transport.pushforward_l1_max"],
        "transport.ck_scan_s": t("transport.ck_scan"),
        "transport.map_values_points": c["transport.map_values_points"],
        "transport.cache_hit_ratio": c["transport.cache_hits"] / lookups if lookups else 0.0,
        "diagnostics.w_inf_s": t("diagnostics.w_inf"),
        "diagnostics.w_inf_pairs": c["diagnostics.w_inf_pairs"],
        "diagnostics.expectation_s": t("diagnostics.expectation"),
        "expressions.eval_s": t("expressions.eval"),
        "expressions.evals": c["expressions.evals"],
        "cli.represent_s": t("cli.represent"),
        "cli.obstruct_s": t("cli.obstruct"),
        "cli.check_assumptions_s": t("cli.check_assumptions"),
        "config.parse_s": t("config.parse"),
        "reports.write_s": t("reports.write"),
        "reports.bytes": c["reports.bytes"],
    }


def self_time_shares(tracer, wall):
    """Self seconds and share of the pass wall time, per span name, largest first."""
    _, own = tracer.span_times()
    rows = sorted(own.items(), key=lambda kv: -kv[1])
    return [(name, sec, sec / wall if wall > 0 else 0.0) for name, sec in rows]
