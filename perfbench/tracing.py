"""Spans and counts around the public functions of each layer, recorded from
outside the program.

``Tracer.install`` replaces each function where the pipeline looks it up
(``topowin.pipeline.<name>``, ``topowin.io.<name>``, and for the calls the
distance layer makes itself, ``topowin.distance.<name>``) with a wrapper
that records a span: name, start, end, parent span and the run id of the
iteration.  Spans stay in memory and are written out when the run ends.

A layer's self time is the duration of its spans minus the time their
direct child spans cover, so the self times of all layers plus the
pipeline's own self time add up to the traced ``pipeline.run`` time.

Spans inside ``multiprocessing`` pool children (the dimension-1 workload's
distance rows) are not captured: the children's copies of the tracer are
lost.  ``distance.pairs`` and ``distance.cost_cells`` are therefore counted
from the diagram sizes passed to ``distance_matrix``, on every workload.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

# (module where the pipeline looks the function up, function, layer, self-time
# metric); spans are named "<layer>.<function>".  The io layer's read_* and
# write_* functions are added by name.
WRAPPED = (
    ("pipeline", "load_csv", "ingest", "ingest.load_csv_s"),
    ("pipeline", "fit_standardizer", "ingest", "ingest.standardize_s"),
    ("pipeline", "apply_standardizer", "ingest", "ingest.standardize_s"),
    ("pipeline", "split_series", "ingest", "ingest.split_s"),
    ("pipeline", "make_windows", "windowing", "windowing.make_windows_s"),
    ("pipeline", "resolve_offset", "pointcloud", "pointcloud.augment_s"),
    ("pipeline", "resolve_anchors", "pointcloud", "pointcloud.augment_s"),
    ("pipeline", "augment", "pointcloud", "pointcloud.augment_s"),
    ("pipeline", "rips_persistence_dim0", "persistence", "persistence.dim0_s"),
    ("pipeline", "rips_persistence_dim1", "persistence", "persistence.dim1_s"),
    ("pipeline", "distance_matrix", "distance", "distance.matrix_s"),
    ("distance", "wasserstein", "distance", "distance.matrix_s"),
    ("distance", "min_cost_assignment", "assignment", "assignment.solve_s"),
    ("pipeline", "predict_all", "classify", "classify.predict_s"),
    ("pipeline", "evaluate", "classify", "classify.evaluate_s"),
    ("pipeline", "render_report_table", "classify", "classify.evaluate_s"),
    ("io", "sha256_file", "io", "io.hash_s"),
    ("io", "stage_key", "io", "io.hash_s"),
    ("io", "diagram_set_hash", "io", "io.hash_s"),
)
SELF_METRIC = {f"{layer}.{attr}": metric for _, attr, layer, metric in WRAPPED}
SELF_METRIC["pipeline.run"] = "pipeline.self_s"
SELF_METRICS = tuple(dict.fromkeys(SELF_METRIC.values())) + ("io.read_s", "io.write_s")
COUNTS = (
    "ingest.rows",
    "windowing.windows",
    "pointcloud.points",
    "persistence.clouds",
    "persistence.diagram_pairs",
    "distance.pairs",
    "distance.cost_cells",
    "assignment.calls",
    "classify.rows",
    "io.bytes_read",
    "io.bytes_written",
)


def self_metric(span_name: str) -> str:
    if span_name.startswith("io.read_"):
        return "io.read_s"
    if span_name.startswith("io.write_"):
        return "io.write_s"
    return SELF_METRIC[span_name]


def _path_arg(args) -> Path:
    return Path(next(a for a in args if isinstance(a, (str, os.PathLike))))


def _count_diagram(counts, args, result):
    counts["persistence.clouds"] += 1
    counts["persistence.diagram_pairs"] += len(result.pairs)


def _count_matrix(counts, args, result):
    test, train = args[0], args[1]
    a = np.array([len(d.pairs) for d in test])
    b = np.array([len(d.pairs) for d in train])
    counts["distance.pairs"] += a.size * b.size
    # Cells of the square (|a| + |b|) cost matrix of each pair: computed, not measured.
    counts["distance.cost_cells"] += int(((a[:, None] + b[None, :]) ** 2).sum())


COUNTERS = {
    "ingest.load_csv": lambda c, args, r: c.update({"ingest.rows": r.length}),
    "windowing.make_windows": lambda c, args, r: c.update({"windowing.windows": len(r)}),
    "pointcloud.augment": lambda c, args, r: c.update({"pointcloud.points": r.points.shape[0]}),
    "persistence.rips_persistence_dim0": _count_diagram,
    "persistence.rips_persistence_dim1": _count_diagram,
    "distance.distance_matrix": _count_matrix,
    "assignment.min_cost_assignment": lambda c, args, r: c.update({"assignment.calls": 1}),
    "classify.predict_all": lambda c, args, r: c.update({"classify.rows": len(r)}),
    "io.sha256_file": lambda c, args, r: c.update({"io.bytes_read": _path_arg(args).stat().st_size}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, run id]
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    def _parent_layer(self) -> str:
        return self.spans[self._stack[-1]][0].split(".")[0] if self._stack else ""

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call, then its counts."""
        count = COUNTERS.get(name)
        if name.startswith(("io.read_", "io.write_")):
            count = self._count_io_bytes(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, stack[-1] if stack else None, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _count_io_bytes(self, name: str):
        key = "io.bytes_read" if name.startswith("io.read_") else "io.bytes_written"

        def count(counts, args, result):
            # io.write_report_json calls io.write_json: count the outer call only.
            if self._parent_layer() != "io":
                counts[key] += _path_arg(args).stat().st_size

        return count

    def install(self) -> Callable[[], None]:
        """Wrap every traced function; returns the function that undoes it."""
        from topowin import distance, io, pipeline

        modules = {"pipeline": pipeline, "distance": distance, "io": io}
        targets = [(modules[m], attr, f"{layer}.{attr}") for m, attr, layer, _ in WRAPPED]
        targets += [(io, attr, f"io.{attr}") for attr in sorted(vars(io)) if attr.startswith(("read_", "write_"))]
        saved = []
        for module, attr, span_name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

        def uninstall() -> None:
            for module, attr, original in saved:
                setattr(module, attr, original)

        return uninstall

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "run_id"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                }
            )
            + "\n",
            encoding="utf-8",
        )

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """Per-iteration self time of each layer, counts and ratios."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = dict.fromkeys(SELF_METRICS, 0.0)
        matrix_s = run_s = 0.0
        for (name, start, end, parent, _), child in zip(self.spans, covered):
            totals[self_metric(name)] += (end - start) - child
            if name == "distance.distance_matrix":
                matrix_s += end - start
            if name == "pipeline.run":
                run_s += end - start
        out = {k: v / iterations for k, v in totals.items()}
        out.update({k: self.counts[k] / iterations for k in COUNTS})
        out["assignment.share"] = totals["assignment.solve_s"] / matrix_s if matrix_s else 0.0
        out["trace.run_s"] = run_s / iterations
        return out
