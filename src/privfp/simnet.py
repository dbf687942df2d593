"""Scheduling and topology simulation for multi-user runs.

Uniform user subsampling for federated rounds, the uniform random walk
over the complete graph for decentralized runs, and per-user observation
logs recording what each user sees (the basis of the network-privacy
view). A log is one append-only store, not an object per event: its
snapshots are copied into fixed blocks of 512 rows, so a 9000-step walk at
p = 64 holds ~541 B per event for 512 B of snapshot. The walk interface is
a single "draw the next user" call so other topologies can slot in later
without touching the solvers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError

_BLOCK_ROWS = 512  # snapshots per block of the observation log
_INTEGERS = (int, np.integer)
_FLOAT = np.dtype(float)


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


@dataclass(eq=False)
class ObservationLog:
    """Per-user sequences of (global step, model snapshot) at participation times.

    The log is one append-only store: the users and steps of its events sit
    in two ``array("q")``, and event j's snapshot is copied into row
    j % 512 of the (512, *shape) float block j // 512. A 9000-event log at
    p = 64 thus holds ~541 B per event, of which 512 B are its snapshot
    (one (k, array) object per event took ~731 B). Every snapshot must have
    the shape of the first. ``events`` and ``sequence`` build the per-user
    lists of (k, z) each time they are read, as ``RunTrace.active`` builds
    its masks; each z is a read-only view of its row.
    """

    n: int
    _users: array = field(default_factory=lambda: array("q"), init=False, repr=False)
    _steps: array = field(default_factory=lambda: array("q"), init=False, repr=False)
    _blocks: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _shape: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    @property
    def events(self) -> dict[int, list[tuple[int, np.ndarray]]]:
        out: dict[int, list[tuple[int, np.ndarray]]] = {}
        for user, k, z in zip(self._users, self._steps, self._rows(range(len(self._users)))):
            out.setdefault(user, []).append((k, z))
        return out

    def sequence(self, user: int) -> list[tuple[int, np.ndarray]]:
        idx = np.flatnonzero(self._user_ids() == user).tolist()
        return list(zip([self._steps[j] for j in idx], self._rows(idx)))

    def total_events(self) -> int:
        return len(self._users)

    def _user_ids(self) -> np.ndarray:
        return np.array(self._users, dtype=np.int64)

    def _rows(self, idx) -> list[np.ndarray]:
        """Read-only views of the snapshot rows of events idx."""
        blocks = [block.view() for block in self._blocks]
        for block in blocks:
            block.flags.writeable = False
        return [blocks[j // _BLOCK_ROWS][j % _BLOCK_ROWS] for j in idx]


def _is_integer(value) -> bool:
    return isinstance(value, _INTEGERS) and not isinstance(value, bool)


def record_observation(log: ObservationLog, user: int, k: int, z: np.ndarray) -> ObservationLog:
    """Append (k, copy of z) to one user's sequence; other users' logs are untouched.

    ``user`` and ``k`` must be integers (numpy integers included, bool not),
    ``user`` in [0, n) and ``k`` within 64 bits; otherwise ``ParameterError``. A snapshot whose
    shape differs from the log's first raises ``StructuralError`` naming
    the user and step; it is never broadcast into a row.
    """
    # Exact ints are tested first: the walk passes them at every step.
    if not (type(user) is int and type(k) is int or _is_integer(user) and _is_integer(k)):
        raise ParameterError(f"user index and step must be integers, got {user!r} and {k!r}")
    if not 0 <= user < log.n:
        raise ParameterError(f"user index {user} out of range [0, {log.n})")
    if not -2**63 <= k < 2**63:
        raise ParameterError(f"step {k} does not fit the log's 64-bit steps")
    if type(z) is not np.ndarray or z.dtype is not _FLOAT:
        z = np.asarray(z, dtype=float)  # so that copying into the row cannot fail
    j = len(log._users)
    if j == 0:
        log._shape = z.shape
    elif z.shape != log._shape:
        raise StructuralError(f"snapshot of user {user} at step {k} has shape {z.shape}, "
                              f"expected {log._shape}")
    row = j % _BLOCK_ROWS
    if row == 0:
        log._blocks.append(np.empty((_BLOCK_ROWS, *z.shape)))
    log._blocks[-1][row] = z
    log._steps.append(k)
    log._users.append(user)
    return log


def participation_counts(log: ObservationLog) -> np.ndarray:
    """Per-user participation counts K_i; their sum is the total step count."""
    return np.bincount(log._user_ids(), minlength=log.n)
