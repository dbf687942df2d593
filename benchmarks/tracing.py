"""Spans around privfp's public functions, recorded from outside the package.

A ``Tracer`` replaces chosen module functions and class methods with
wrappers while a ``patched`` block is open, and puts the originals back
when it closes. Each call records one span: name, start, end and the id of
the span that was open when it began (its parent). Spans live in flat
arrays in memory and are written out once, by ``save``.

The benchmark is single-threaded, so the children of a span never overlap
and its self time is its duration minus the sum of its direct children's
durations (``self_times``).
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np


class Tracer:
    """Span and counter store for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable,
             work: Callable[[tuple, dict], float] | None = None) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``.

        ``work(args, kwargs)``, when given, is added to ``counts[name]``;
        it measures useful work at the boundary (e.g. normals drawn).
        """
        nid = self._name(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if work is not None:
                counts[name] = counts.get(name, 0.0) + work(args, kwargs)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call adds one to ``counts[name]`` (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0.0) + 1.0
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, targets):
        """Install span wrappers on ``(owner, attr, name, work)`` targets; restore on exit."""
        originals = []
        try:
            for owner, attr, name, work in targets:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total self time, total duration, all durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {"calls": int(sel.sum()), "self_s": float(own[sel].sum()),
                         "total_s": float(dur[sel].sum()), "durations": dur[sel]}
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        a = self.arrays()
        child = np.flatnonzero(a["name_id"] == self._ids[child_name])
        parents = a["parent"][child]
        parents = parents[parents >= 0]
        return int(np.sum(a["name_id"][parents] == self._ids[parent_name]))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def privfp_targets() -> list[tuple]:
    """The public privfp functions and methods whose calls the traced run records."""
    from privfp import admm, bench, fixedpoint, operators, privacy, rng, simnet

    def normals(args, kwargs):
        # gaussian_block(seed, k, b, sigma, size) draws nothing when sigma == 0
        sigma = args[3] if len(args) > 3 else kwargs["sigma"]
        size = args[4] if len(args) > 4 else kwargs["size"]
        return float(size) if sigma != 0.0 else 0.0

    return [
        (rng, "substream", "rng.substream", None),
        (rng, "gaussian_block", "rng.gaussian_block", normals),
        (admm, "centralized_run", "admm.centralized_run", None),
        (admm, "federated_run", "admm.federated_run", None),
        (admm, "federated_round", "admm.federated_round", None),
        (admm, "decentralized_run", "admm.decentralized_run", None),
        (admm, "decentralized_step", "admm.decentralized_step", None),
        (operators.L1Prox, "__call__", "operators.prox_r", None),
        (operators.QuadraticProx, "__call__", "operators.quadratic_prox", None),
        (simnet, "sample_users", "simnet.sample_users", None),
        (simnet, "walk_next", "simnet.walk_next", None),
        (simnet, "record_observation", "simnet.record_observation", None),
        (fixedpoint, "run", "fixedpoint.run", None),
        (fixedpoint.SingleUniform, "mask", "fixedpoint.schedule_mask", None),
        (fixedpoint.AllBlocks, "mask", "fixedpoint.schedule_mask", None),
        (privacy, "calibrate_sigma", "privacy.calibrate_sigma", None),
        (privacy, "setting_curve", "privacy.setting_curve", None),
        (bench, "gen_lasso", "bench.gen_lasso", None),
        (bench, "lasso_consensus_problem", "bench.lasso_consensus_problem", None),
        (bench, "reference_lasso", "bench.reference_lasso", None),
        (bench, "dpsgd_federated", "bench.dpsgd_federated", None),
    ]
