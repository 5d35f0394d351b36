"""RSRC — relative server-site response cost (paper Section 4, Equation 5).

Without knowing a dynamic request's exact demand, the scheduler estimates
the *relative* cost of running it on each node from the request family's
average CPU weight ``w`` and the node's current idle ratios:

    ``RSRC = w / CPUIdleRatio + (1 - w) / DiskAvailRatio``

and picks the node with the minimum cost.  ``w`` comes from offline sampling
(:mod:`repro.core.sampling`); when unavailable the paper assumes ``w = 0.5``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Idle ratios are floored at this value so a saturated resource yields a
#: large-but-finite cost instead of a division by zero.
IDLE_FLOOR = 1e-3

#: Default CPU weight when no sampled value exists (paper: "we assume
#: w = 0.5, which means that I/O and CPU resources are considered to be
#: equally important").
DEFAULT_W = 0.5


def rsrc_cost(w: float, cpu_idle, disk_avail, floor: float = IDLE_FLOOR):
    """Evaluate Equation 5.  Accepts scalars or aligned numpy arrays.

    >>> rsrc_cost(0.5, 1.0, 1.0)
    1.0
    >>> rsrc_cost(1.0, 0.5, 0.01)   # pure-CPU request ignores the disk
    2.0
    """
    _check_w(w)
    out = _cost(w, np.asarray(cpu_idle, dtype=float),
                np.asarray(disk_avail, dtype=float), floor)
    return float(out) if out.ndim == 0 else out


def _check_w(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1]; got {w}")


def _cost(w: float, cpu: np.ndarray, disk: np.ndarray, floor: float):
    """Equation 5 on float arrays, without argument checks."""
    return w / np.maximum(cpu, floor) + (1.0 - w) / np.maximum(disk, floor)


def select_min_rsrc(
    w: float,
    cpu_idle: np.ndarray,
    disk_avail: np.ndarray,
    candidates: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    tie_tolerance: float = 1e-9,
) -> int:
    """Pick the candidate node with the minimum RSRC.

    ``cpu_idle`` and ``disk_avail`` are per-node float arrays indexed by
    the candidate ids.  Near-ties are broken uniformly at random (when
    ``rng`` is given) so that a fleet of equally idle nodes does not herd
    onto the lowest index between two load-monitor updates.
    """
    _check_w(w)
    cand = np.asarray(candidates, dtype=np.intp)
    if cand.size == 0:
        raise ValueError("candidate set is empty")
    costs = _cost(w, cpu_idle[cand], disk_avail[cand], IDLE_FLOOR)
    if rng is None:
        return int(cand[int(np.argmin(costs))])
    ties = (costs <= np.minimum.reduce(costs) + tie_tolerance).nonzero()[0]
    pick = ties[int(rng.integers(len(ties)))] if len(ties) > 1 else ties[0]
    return int(cand[pick])
