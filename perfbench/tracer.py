"""Outside-in layer tracer for the traced benchmark run.

The package carries no instrumentation of its own, so the tracer wraps the
public functions of each layer from outside.  A function is rebound in its
defining module and in every package module that imported the name (for
example `rank` in `resolution`, `les` and `cocycle`), because calls through
an imported name would otherwise go uncounted.  Methods are patched on
their class.

Each wrapped call inside a request records a span (name, start, end,
parent span, request id) in memory; the spans are written out once the run
ends.  A layer's self time is its spans' durations minus the durations of
their child spans, so the self times of all layers plus the request's own
self time (`unattributed_s`) add up to the request's wall time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager


def _one(args, result):
    return 1


def _matrix_cells(args, result):
    m = args[0]
    return m.rows * m.cols


def _int_rows_cells(args, result):
    rows, cols = args[1], args[2]
    return len(rows) * cols


def _free_module_cells(args, result):
    """free_amodule(algebra, k) builds |G| dense (|G|k x |G|k) matrices."""
    n, k = args[0].dim, args[1]
    return n * (n * k) ** 2


def _bar_cells(args, result):
    """bar_dimension(group, v, p) ranks delta^p and, for p > 0, delta^(p-1)."""
    n, d, p = args[0].order, args[1].dim, args[2]
    if d == 0:
        return 0
    cells = n ** (p + 1) * d * n ** p * d
    if p > 0:
        cells += n ** p * d * n ** (p - 1) * d
    return cells


def _free_ranks(args, result):
    return sum(result.ranks)


# (module, function or Class.method, self-time metric or None, counters).
# A None metric records no span, only the counters.  Every span's self time
# lands in exactly one `_s` metric, which keeps the sum identity exact.
WRAPPED = (
    ("problem", "parse_problem", "problem.parse_s", ()),
    ("groups", "close_generators", "groups.closure_s", ()),
    ("groups", "subgroup_closure", "groups.closure_s", ()),
    ("algebra", "GroupAlgebra.__init__", "algebra.group_algebra_s", ()),
    ("algebra", "augmentation_ideal", "algebra.filtration_s",
     (("algebra.filtration_calls", _one),)),
    ("algebra", "j_filtration", "algebra.filtration_s", (("algebra.filtration_calls", _one),)),
    ("algebra", "i_power_by_products", "algebra.filtration_s",
     (("algebra.filtration_calls", _one),)),
    ("modules", "trivial_module", "modules.build_s", ()),
    ("modules", "make_module", "modules.build_s", ()),
    ("modules", "regular_module", "modules.build_s", ()),
    ("modules", "coinduced_module", "modules.build_s", ()),
    ("modules", "h_q0_annihilator", "modules.h0_s", ()),
    ("modules", "h_q0_inductive", "modules.h0_s", ()),
    ("resolution", "resolution_of_quotient", None, (("resolution.requests", _one),)),
    ("resolution", "resolution_of_layer", None, (("resolution.requests", _one),)),
    ("resolution", "build_resolution", "resolution.build_s",
     (("resolution.builds", _one), ("resolution.free_rank_sum", _free_ranks))),
    ("resolution", "free_amodule", "resolution.free_module_s",
     (("resolution.free_module_calls", _one), ("resolution.free_module_cells", _free_module_cells))),
    ("resolution", "quotient_amodule", "resolution.quotient_s", ()),
    ("resolution", "amodule_from_subspace", "resolution.quotient_s", ()),
    ("resolution", "ext", "resolution.ext_s", (("resolution.ext_calls", _one),)),
    ("resolution", "hom_delta", "resolution.ext_s", ()),
    ("resolution", "bar_dimension", "resolution.bar_s",
     (("resolution.bar_calls", _one), ("resolution.bar_cells", _bar_cells))),
    ("cocycle", "h_q1_cocycle", "cocycle.h1_s", (("cocycle.h1_calls", _one),)),
    ("cocycle", "hom_a_space", "cocycle.h1_s", ()),
    ("cocycle", "alpha_map", "cocycle.h1_s", ()),
    ("les", "quotient_ses", "les.ses_s", ()),
    ("les", "trivial_action_witness", "les.ses_s", ()),
    ("les", "horseshoe", "les.horseshoe_s", (("les.horseshoe_calls", _one),)),
    ("les", "long_exact_sequence", "les.sequence_s", ()),
    ("les", "power_identification", "les.power_s", ()),
    ("les", "vanishing_check", "les.vanishing_s", ()),
    ("linalg", "rref", "linalg.rref_s",
     (("linalg.rref_calls", _one), ("linalg.rref_cells", _matrix_cells))),
    ("linalg", "kernel", "linalg.rref_s", (("linalg.kernel_calls", _one),)),
    ("linalg", "column_space", "linalg.rref_s", ()),
    ("linalg", "solve_column", "linalg.rref_s", ()),
    ("linalg", "rank", "linalg.rank_s",
     (("linalg.rank_calls", _one), ("linalg.rank_cells", _matrix_cells))),
    ("linalg", "rank_of_int_rows", "linalg.rank_s",
     (("linalg.rank_calls", _one), ("linalg.rank_cells", _int_rows_cells))),
    ("linalg", "Matrix.__matmul__", "linalg.matmul_s", (("linalg.matmul_calls", _one),)),
    ("linalg", "Matrix.__init__", None,
     (("linalg.matrix_new", _one), ("linalg.matrix_cells", _matrix_cells))),
)

TIME_METRICS = sorted({metric for _, _, metric, _ in WRAPPED if metric})
COUNT_METRICS = sorted({name for *_, counters in WRAPPED for name, _ in counters})


def label(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Spans and counters of the requests run inside `request()`."""

    def __init__(self):
        self.spans = []        # [label, start, end, parent index, request id]
        self.counters = {}     # request id -> {counter: value}
        self.reached = set()
        self._stack = []
        self._request = None
        self._patches = []     # (owner, attribute, original)

    def _wrapper(self, fn, name, metric, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            request = self._request
            if request is None:
                return fn(*args, **kwargs)
            self.reached.add(name)
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                span = [name, clock(), None, stack[-1], request]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            counts = self.counters[request]
            for counter, measure in counters:
                counts[counter] += measure(args, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Patch every wrapped function; returns the ones the package lacks."""
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hocohom" or n.startswith("hocohom."))]
        missing = []
        for module, attr, metric, counters in WRAPPED:
            owner_name, _, name = attr.rpartition(".")
            owner = sys.modules.get(f"hocohom.{module}")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                missing.append(label(module, attr))
                continue
            wrapper = self._wrapper(original, label(module, attr), metric, counters)
            for site in [owner] if owner_name else package:
                for key in [k for k, v in vars(site).items() if v is original]:
                    self._patches.append((site, key, original))
                    setattr(site, key, wrapper)
        return missing

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    @contextmanager
    def request(self, request_id: int):
        """Trace one request; its root span covers the whole block."""
        self.counters[request_id] = dict.fromkeys(COUNT_METRICS, 0)
        root = ["request", time.perf_counter(), None, None, request_id]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        self._request = request_id
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._request = None
            self._stack.pop()

    def request_metrics(self, request_id: int) -> dict:
        """Self time per layer metric, unattributed time, wall time and counters."""
        metric_of = {label(m, a): metric for m, a, metric, _ in WRAPPED}
        child_time = {}
        for span in self.spans:
            if span[4] == request_id and span[3] is not None:
                child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            if request != request_id:
                continue
            own = end - start - child_time.get(index, 0.0)
            if parent is None:
                out["unattributed_s"] = own
                out["trace.wall_s"] = end - start
            else:
                out[metric_of[name]] += own
        counts = self.counters[request_id]
        out.update(counts)
        out["resolution.reuse_ratio"] = (
            1.0 - counts["resolution.builds"] / counts["resolution.requests"]
            if counts["resolution.requests"] else 0.0)
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")


def combine(per_request: list[dict]) -> dict:
    """Median of each metric over the traced requests."""
    return {k: statistics.median(m[k] for m in per_request) for k in per_request[0]}


def wrapped_labels() -> set[str]:
    return {label(m, a) for m, a, _, _ in WRAPPED}
