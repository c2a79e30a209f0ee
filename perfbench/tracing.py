"""Spans around calls into each layer, recorded from outside the program.

The traced run replaces public functions at the module attributes through
which they are looked up (``covsearch.protocols.rank`` is how ``loo_cbs``
reaches the ranking layer, ``covsearch.importance.js_distance`` is how
``js_score`` reaches the distance).  Each wrapper records a span: name,
start, end and the span that was open when it was called.  Spans stay in
flat arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its children.
The program is single-threaded, so children never overlap and the
subtraction is exact.  Layer names are the first component of a span name,
which is the ``covsearch`` module the function belongs to.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import covsearch.importance as importance
import covsearch.ingest as ingest
import covsearch.model as model
import covsearch.protocols as protocols
import covsearch.ranking as ranking

# (owner, attribute, span name).  One span name may sit behind several
# attributes: ``ranking.rank`` is reached both from the benchmark and from
# the protocols module.
TARGETS = (
    (ingest, "parse_space", "ingest.parse_space"),
    (ingest, "parse_scores", "ingest.parse_scores"),
    (ingest, "completeness_report", "ingest.completeness_report"),
    (ingest, "ScoreTable", "model.score_table"),
    (model.ConfigSpace, "grid", "model.grid"),
    (ranking, "rank", "ranking.rank"),
    (ranking, "top_set", "ranking.top_set"),
    (ranking, "normalize", "ranking.normalize"),
    (protocols, "rank", "ranking.rank"),
    (protocols, "normalize", "ranking.normalize"),
    (importance, "top_set", "ranking.top_set"),
    (protocols, "loo_cbs", "protocols.loo_cbs"),
    (protocols, "budget_curve", "protocols.budget_curve"),
    (protocols, "compare_protocols", "protocols.compare_protocols"),
    (protocols, "upper_bound", "protocols.upper_bound"),
    (protocols, "fixed_config_eval", "protocols.fixed_config_eval"),
    (importance, "importance_report", "importance.importance_report"),
    (importance, "permutation_pval", "importance.permutation_pval"),
    (importance, "js_score", "importance.js_score"),
    (importance, "js_distance", "importance.js_distance"),
    (importance, "value_distribution", "importance.value_distribution"),
)

LAYERS = ("ingest", "model", "ranking", "protocols", "importance", "report")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Top-set size per span (-1 for other spans) and distinct top-set
        # keys, for the size and reuse metrics of the ranking layer.
        self.size = array("i")
        self.top_set_keys: set = set()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(-1)
        self._stack.append(sid)
        return sid

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        is_top_set = name == "ranking.top_set"
        stack, start, end, clock = self._stack, self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if is_top_set:
                self.size[sid] = len(result)
                self.top_set_keys.add((id(args[0]), result.context, result.split,
                                       result.threshold))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around rendering."""
        sid = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            self._stack.pop()

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
        }

    def write(self, path: Path, meta: dict) -> None:
        """Write all spans of the run: arrays as .npz plus a JSON sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), **self.arrays())
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, **meta}, indent=2), encoding="utf-8"
        )


def layer_metrics(tracer: Tracer, first: int) -> dict[str, float]:
    """Per-layer figures of the spans recorded from span index ``first`` on.

    ``tracer.top_set_keys`` must hold the keys of those spans only.
    """
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    children = np.bincount(
        a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_time = duration - children
    a = {key: value[first:] for key, value in a.items()}
    duration, self_time = duration[first:], self_time[first:]
    has_parent = a["parent"] >= 0
    names = np.array(tracer.names, dtype=object)[a["name"]]
    layer = np.array([n.split(".")[0] for n in tracer.names], dtype=object)[a["name"]]
    top = ~has_parent

    def total(name):  # inclusive time of calls made by the benchmark
        return float(duration[top & (names == name)].sum())

    def inclusive(name):  # every call of one function, whoever made it
        return float(duration[names == name].sum())

    def calls(name):
        return float(np.count_nonzero(names == name))

    def self_s(name):
        return float(self_time[names == name].sum())

    # Self time per layer, and total time per layer of the calls the
    # benchmark made into it (its entry points, children included).
    out: dict[str, float] = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = float(self_time[layer == lay].sum())
        out[f"{lay}.total_s"] = float(duration[top & (layer == lay)].sum())
    out["ingest.parse_scores_s"] = total("ingest.parse_scores")
    out["ingest.parse_space_s"] = total("ingest.parse_space")
    # None of these functions calls itself, so their spans never nest and
    # the sum counts no time twice.
    for name in ("ranking.rank", "protocols.loo_cbs", "protocols.budget_curve",
                 "protocols.compare_protocols", "importance.importance_report"):
        out[f"{name}_s"] = inclusive(name)
    out["ranking.rank.calls"] = calls("ranking.rank")
    for name in ("ranking.top_set", "ranking.normalize"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    is_top_set = names == "ranking.top_set"
    out["ranking.top_set.size_mean"] = float(a["size"][is_top_set].mean())
    out["ranking.top_set.reuse"] = len(tracer.top_set_keys) / max(1, int(is_top_set.sum()))
    out["protocols.loo_cbs.calls"] = calls("protocols.loo_cbs")
    out["protocols.upper_bound.calls"] = calls("protocols.upper_bound")
    for name in ("importance.permutation_pval", "importance.js_distance"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    # Pool size: top-set members gathered by one importance entry point
    # (importance_report or permutation_pval), which pool them per dataset.
    pool_owner = np.isin(names, ["importance.importance_report",
                                 "importance.permutation_pval"])
    owners = np.flatnonzero(pool_owner)
    if len(owners):
        members = np.bincount(
            a["parent"][is_top_set & has_parent] - first,
            weights=a["size"][is_top_set & has_parent],
            minlength=len(duration),
        )
        out["importance.pool_size"] = float(members[owners].mean())
    else:
        out["importance.pool_size"] = 0.0
    out["report.render_s"] = total("report.render")
    out["report.to_json_s"] = total("report.to_json")
    return out
