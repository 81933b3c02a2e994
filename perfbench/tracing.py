"""Per-layer spans for the traced in-process run.

The package's public functions are wrapped from here, module by module,
while ``cli.main`` runs the workload's requests in this process; nothing
inside the package changes.  Each span records its name, start, end,
parent span and request index.  A span's self time is its duration
minus the durations of its direct children, so the self times of all
spans add up to the time covered by the per-request top-level spans.

Wrapping notes:

* ``CountMatrix.__init__`` is patched on the class, because ``dp`` and
  ``cli`` bind the class name at import.
* ``oracle.enumerate_words`` is wrapped as a generator whose span covers
  the whole iteration.
* ``formulas.binomial`` stays unwrapped: it is called millions of times
  and its time belongs to its callers' self time.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack

import workloads

FORMULAS = (
    "a_closed", "d1_via_a", "d1_closed", "h_via_square", "d1_split",
    "d_boundary", "d_boundary_printed", "i_inner", "s_free_closed",
    "s_free_printed", "s2_closed", "motzkin_number", "catalan_number",
)

# The eight column-march loops, with the columns each call marches.
MARCHES = {
    "di_table": lambda dims, start_row: dims.cols - 1,
    "d_table": lambda dims: dims.cols - 1,
    "a_table": lambda n: n - 1,
    "bounded_pair_count": lambda dims, start, end: end.col - start.col,
    "imn": lambda dims: dims.cols - 1,
    "imn_sequence": lambda rows, max_cols: max_cols - 1,
    "d1_bottom_row": lambda rows, max_cols: max_cols - 1,
    "free_count": lambda net, steps: steps if abs(net) <= steps else 0,
}
DP_OTHER = ("h_table", "hss_values")  # delegate their march to di_table

CLI_RENDERERS = (
    "render_table_csv", "render_table_json", "render_table_markdown",
    "_render_verify_markdown", "_render_verify_csv",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    metrics = [
        ("dp.march_s", "s"), ("dp.builds", "count"),
        ("dp.columns_marched", "count"), ("dp.max_bits", "bits"),
        ("dp.unique_build_ratio", "ratio"),
        ("core.matrix_s", "s"), ("core.matrix_builds", "count"),
        ("core.matrix_cells", "count"),
    ]
    for fn in FORMULAS:
        metrics += [(f"formulas.{fn}.s", "s"), (f"formulas.{fn}.calls", "count")]
    metrics.append(("formulas.dp_builds", "count"))
    for ident in workloads.IDENTITIES:
        metrics += [(f"verify.{ident}.s", "s"), (f"verify.{ident}.cases", "count")]
    metrics += [
        ("verify.driver_s", "s"),
        ("oracle.dfs_s", "s"), ("oracle.words", "count"),
        ("cli.render_s", "s"), ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
        ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return metrics


def _max_bits(result) -> int:
    if isinstance(result, int):
        return result.bit_length()
    if isinstance(result, list):
        return max((v.bit_length() for v in result), default=0)
    # A CountMatrix: every family's entries grow from one column to the
    # column after next, so the last two columns hold the largest entry.
    cols = result.dims.cols
    return max(v.bit_length() for s in range(max(1, cols - 1), cols + 1)
               for v in result.column(s))


class Tracer:
    """Spans in memory: [name, start, end, parent, request, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def call(self, name, fn, args, kwargs, info=None):
        """``fn(*args, **kwargs)`` inside a span; ``info`` derives the
        span's counts from the arguments and result."""
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.request, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if info is not None:
            span[5] = info(args, kwargs, result)
        return result

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return wrapper

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, self.request, 0]
            self.spans.append(span)
            try:
                for item in fn(*args, **kwargs):
                    span[5] += 1
                    yield item
            finally:
                span[2] = time.perf_counter()
        return wrapper

    def instrument(self, stack: ExitStack) -> None:
        """Wrap the package's layers; ``stack`` undoes every patch."""
        from tablepaths import cli, core, dp, formulas, oracle, verify

        def patch(owner, attr, new):
            old = getattr(owner, attr)
            setattr(owner, attr, new)
            stack.callback(setattr, owner, attr, old)

        for fn, columns in MARCHES.items():
            def info(args, kwargs, result, fn=fn, columns=columns):
                return (fn, args, columns(*args, **kwargs), _max_bits(result))
            patch(dp, fn, self.wrap(f"dp.{fn}", getattr(dp, fn), info))
        for fn in DP_OTHER:
            patch(dp, fn, self.wrap(f"dp.{fn}", getattr(dp, fn)))
        patch(core.CountMatrix, "__init__", self.wrap(
            "core.CountMatrix", core.CountMatrix.__init__,
            lambda args, kwargs, result: args[1].rows * args[1].cols))
        for fn in FORMULAS:
            patch(formulas, fn, self.wrap(f"formulas.{fn}", getattr(formulas, fn)))
        patch(verify, "run_identity", self.wrap(
            "verify.run_identity", verify.run_identity,
            lambda args, kwargs, rep: (rep.spec.identity, rep.cases_checked)))
        patch(oracle, "enumerate_words", self.wrap_generator(
            "oracle.enumerate_words", oracle.enumerate_words))
        for fn in CLI_RENDERERS:
            patch(cli, fn, self.wrap(f"cli.{fn}", getattr(cli, fn)))

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans into per-layer metrics (times in seconds)."""
        out = {name: 0 for name, _ in per_layer_metrics()}
        keys = set()
        for i, self_s in enumerate(self.self_times()):
            name, start, end, _, _, info = self.spans[i]
            layer, _, fn = name.partition(".")
            if layer == "dp":
                out["dp.march_s"] += self_s
                if info is not None:
                    fn, args, columns, bits = info
                    out["dp.builds"] += 1
                    out["dp.columns_marched"] += columns
                    out["dp.max_bits"] = max(out["dp.max_bits"], bits)
                    keys.add((fn, args))
                    if self._caller_layer(i) == "formulas":
                        out["formulas.dp_builds"] += 1
            elif layer == "core":
                out["core.matrix_s"] += self_s
                out["core.matrix_builds"] += 1
                out["core.matrix_cells"] += info or 0
            elif layer == "formulas":
                out[f"formulas.{fn}.s"] += self_s
                out[f"formulas.{fn}.calls"] += 1
            elif layer == "verify":
                out["verify.driver_s"] += self_s
                if info is not None:
                    ident, cases = info
                    out[f"verify.{ident}.s"] += end - start
                    out[f"verify.{ident}.cases"] += cases
            elif layer == "oracle":
                out["oracle.dfs_s"] += self_s
                out["oracle.words"] += info
            elif name == "cli.main":
                out["cli.self_s"] += self_s
            else:
                out["cli.render_s"] += self_s
        if out["dp.builds"]:
            out["dp.unique_build_ratio"] = len(keys) / out["dp.builds"]
        return out

    def _caller_layer(self, i: int) -> str:
        """Layer of the nearest enclosing span outside ``dp``."""
        parent = self.spans[i][3]
        while parent >= 0 and self.spans[parent][0].startswith("dp."):
            parent = self.spans[parent][3]
        return self.spans[parent][0].partition(".")[0] if parent >= 0 else ""

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]
