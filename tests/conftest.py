import numpy as np
import pytest

from rostop import acceptance_times, compute_thresholds, dp, make_instance
from rostop.asymptotics import _lower_bound_tail_sums

REF_PARAMS = (0.789, 1.24, 0.421)

# Feasible parameter triples away from the reference point, used for
# cross-checks that should not depend on one lucky corner of the space.
PERTURBED = ((0.80, 1.25, 0.45), (0.75, 1.20, 0.50), (0.85, 1.30, 0.52))

# Real laws at n <= 64 whose discounted sums take two or more blocks: the
# zero atom's mass is below e^-600/n.
MULTI_BLOCK = [(0.5, 1.2, 63.98, 64), (0.789, 1.24, 63.984, 64), (0.9, 1.05, 47.9791, 48)]


def tail_sums(eps, max_length):
    """Every ``S(L)``, L = 1..max_length, gathered from the sandwich's tiles."""
    ramp = np.arange(float(min(dp._TILE, max_length)))
    return np.concatenate([t.copy() for t in _lower_bound_tail_sums(eps, max_length, ramp)])


class _DpCache:
    """Session-wide cache of (instance, tables, times) per size, reference params."""

    def __init__(self):
        self._store = {}

    def get(self, n: int):
        if n not in self._store:
            inst, _ = make_instance(*REF_PARAMS, n)
            tables = compute_thresholds(inst)
            self._store[n] = (inst, tables, acceptance_times(tables, inst))
        return self._store[n]


@pytest.fixture(scope="session")
def ref_dp():
    return _DpCache()
