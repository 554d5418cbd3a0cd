"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every name under which a ``metrictrees`` module holds them (``cli``
imports most of them by name, ``noncompactness`` the profiles, ``structure``
``edge_samples``).  Each call becomes a span with its request id, its parent
span and its self time (duration minus the time of the wrapped calls inside
it).  Hot leaf calls are only aggregated per request, so that the trace of a
``kappa`` request (over 10^5 distance calls) stays small.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from itertools import count
from time import perf_counter

import numpy as np

from metrictrees import cli, core, covering, ingest, noncompactness, reports, sampling, structure

PROFILE = "covering.profile"

# span name, owner, attribute, hot (aggregated only), count taken from the result
TARGETS = [
    ("core.tree_build", core.MetricTree, "__init__", False, None),
    ("core.distance", core.MetricTree, "distance", True, None),
    ("core.segment", core.MetricTree, "segment", True, ("chain_nodes", lambda r: len(r.node_chain))),
    ("core.point_at", core.Segment, "point_at", True, None),
    ("covering.min_ball_cover", covering, "min_ball_cover", False, ("centers", lambda r: len(r.centers))),
    *((PROFILE, covering, f, False, ("values", lambda r: len(r.values)))
      for f in ("alpha_profile", "beta_profile", "beta_star_profile")),
    ("noncompactness.measure_report", noncompactness, "measure_report", False, None),
    ("ingest.parse_tree", ingest, "parse_tree", False, None),
    ("ingest.parse_matrix", ingest, "parse_matrix", False, None),
    ("ingest.metric_violation", ingest.DistanceMatrix, "metric_violation", False, None),
    ("ingest.check_four_point", ingest, "check_four_point", False, None),
    ("ingest.tree_from_distances", ingest, "tree_from_distances", False, None),
    ("ingest.matrix_from_points", ingest, "matrix_from_points", False, None),
    ("ingest.serialize_tree", ingest, "serialize_tree", False, None),
    ("structure.kappa_probe", structure, "kappa_probe", False, None),
    ("structure.lifschitz_witness", structure, "lifschitz_witness", False, None),
    ("structure.lifschitz_counterexample", structure, "lifschitz_counterexample", False, None),
    ("sampling.edge_samples", sampling, "edge_samples", False, None),
    *(("reports", reports, f, f == "point_obj", None)
      for f in reports.__all__ if callable(getattr(reports, f))),
    ("cli", cli, "main", False, None),
]


class Tracer:
    """Spans and per-request stats of the calls made while installed."""

    def __init__(self) -> None:
        self.request = -1  # id of the current request; the loop advances it
        self.stack: list[list] = []  # [name, child seconds, id of nearest recorded span]
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.stats: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._ids = count()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "metrictrees" or name.startswith("metrictrees.")]
        for name, owner, attr, hot, tally in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hot, tally)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hot, tally):
        stack, stats, counts, spans, ids = self.stack, self.stats, self.counts, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, parent if hot else next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                entry = stats[self.request, name]
                entry[0] += 1
                entry[1] += dur - frame[1]
                entry[2] += dur
                if not hot:
                    spans.append((frame[2], parent, self.request, name, start, end))
            if tally is not None:
                counts[self.request, f"{name}.{tally[0]}"] += tally[1](result)
            if name == "covering.min_ball_cover" and any(f[0] == PROFILE for f in stack):
                counts[self.request, "covering.covers_in_profiles"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------------------- #

    def per_request(self, requests: list[int], key: str, column: int | None = None) -> np.ndarray:
        """One value per request: a stat column (calls, self, total) or a count."""
        if column is None:
            return np.array([self.counts.get((r, key), 0) for r in requests], dtype=float)
        return np.array([self.stats[r, key][column] if (r, key) in self.stats else 0.0
                         for r in requests])


def slope(sizes: list[int], values: np.ndarray, req_sizes: np.ndarray) -> float:
    """Log-log slope of the mean per-request value against the size."""
    means = np.array([values[req_sizes == s].mean() for s in sizes])
    if (means <= 0).any():
        return 0.0
    return float(np.polyfit(np.log(sizes), np.log(means), 1)[0])


CALLS, SELF, TOTAL = 0, 1, 2
_COLUMNS = {"calls": CALLS, "self_s": SELF, "total_s": TOTAL}
# metrics that are a count attached to a span rather than a stat column
_COUNTS = {"core.segment.chain_nodes", "covering.min_ball_cover.centers"}


def layer_metrics(tracer: Tracer, names: list[str], requests: list[int],
                  req_sizes: np.ndarray, sizes: list[int]) -> dict:
    """Each per-layer metric named in ``names``, as a mean per traced request.

    ``<span>.calls|self_s|total_s`` read the span stats, ``<span>.slope``
    fits per-request self time against size, and ``covers_per_value`` is
    the cover calls made inside profiles per profile value returned.
    """
    out = {}
    for metric in names:
        span, _, what = metric.rpartition(".")
        if metric in _COUNTS:
            out[metric] = float(tracer.per_request(requests, metric).mean())
        elif what in _COLUMNS:
            out[metric] = float(tracer.per_request(requests, span, _COLUMNS[what]).mean())
        elif what == "slope":
            out[metric] = slope(sizes, tracer.per_request(requests, span, SELF), req_sizes)
        elif metric == "covering.covers_per_value":
            values = tracer.per_request(requests, f"{PROFILE}.values").sum()
            covers = tracer.per_request(requests, "covering.covers_in_profiles").sum()
            out[metric] = float(covers / values) if values else 0.0
    return out
