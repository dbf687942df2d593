"""Scheduling and topology simulation for multi-user runs.

Uniform user subsampling and the uniform random walk over the complete
graph, which runs draw through ``fixedpoint``'s ``FixedCohort`` and
``RandomWalk`` schedules, and per-user observation logs recording what each
user sees (the basis of the network-privacy view). A log is a read-only view
of the walk's frozen ``RunTrace``, which keeps every holder and every
released z (one read-only (K, p) array), plus the one fact the trace lacks:
the holder drawn for the step after the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, StructuralError

if TYPE_CHECKING:
    from .fixedpoint import RunTrace


def sample_users(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform subset of m of n user indices, without replacement (sorted)."""
    if n < 1:
        raise ParameterError(f"population must be >= 1, got {n}")
    if not 1 <= m <= n:
        raise ParameterError(f"cohort size must satisfy 1 <= m <= n, got m={m}, n={n}")
    return np.sort(rng.choice(n, size=m, replace=False))


def walk_next(n: int, rng: np.random.Generator) -> int:
    """Next walk target, uniform over all n users (self-loops allowed)."""
    if n < 1:
        raise ParameterError(f"population must be >= 1, got {n}")
    return int(rng.integers(n))


@dataclass(frozen=True, eq=False)
class ObservationLog:
    """Per-user sequences of (global step, model snapshot) at participation times.

    A view of a K-step walk's trace: event k (k = 1, ..., K) hands z_k, the z
    released at step k - 1 (``trace.iterates[k - 1]``), to the holder of step
    k, ``trace.active_rows[k]`` for k < K and ``last`` for k = K. ``events``
    and ``sequence`` build the per-user lists of (k, z) each time they are
    read, as ``RunTrace.active`` builds its masks; each z is a read-only row.
    """

    trace: RunTrace
    last: int

    @property
    def n(self) -> int:
        return self.trace.n_blocks

    @property
    def events(self) -> dict[int, list[tuple[int, np.ndarray]]]:
        out: dict[int, list[tuple[int, np.ndarray]]] = {}
        for k, (user, z) in enumerate(zip(self._users(), self.trace.iterates), start=1):
            out.setdefault(user, []).append((k, z))
        return out

    def sequence(self, user: int) -> list[tuple[int, np.ndarray]]:
        return self.events.get(user, [])

    def total_events(self) -> int:
        return len(self.trace)

    def _users(self) -> tuple[int, ...]:  # the receiver of each hand-off, in step order
        return (*self.trace.active_rows[1:], self.last)


def record_observation(trace: RunTrace, last: int) -> ObservationLog:
    """The observation log of a walk whose trace recorded an iterate in each of its
    K >= 1 rounds (``StructuralError`` otherwise); ``last``, in [0, n) (``ParameterError``
    otherwise), is the holder drawn for step K. A run calls it once, after its last step."""
    if not len(trace.iterates) == len(trace) > 0:
        raise StructuralError(f"a walk's log needs an iterate per round, got {len(trace.iterates)} "
                              f"for {len(trace)} rounds")
    if not 0 <= last < trace.n_blocks:
        raise ParameterError(f"last holder {last} out of range for n={trace.n_blocks}")
    return ObservationLog(trace, last)


def participation_counts(log: ObservationLog) -> np.ndarray:
    """Per-user participation counts K_i; their sum is the total step count."""
    return np.bincount(np.array(log._users(), dtype=np.int64), minlength=log.n)
