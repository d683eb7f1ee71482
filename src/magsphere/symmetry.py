"""Discrete symmetries of the reduced system.

Three involutions: particle exchange (identical particles, q fixed), time
reversal (flip B and all momenta) and the opposite-charge map relating the
(e1, e2) system to the (e1, -e2) one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import DomainError, ReducedState, SystemParams


def swap_matrix(q: float) -> np.ndarray:
    """Involutory matrix acting on (m1, m2, m3, p) under particle exchange."""
    c, s = np.cos(q), np.sin(q)
    return np.array(
        [
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -c, -s, 0.0],
            [0.0, -s, c, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )


def swap(state: ReducedState, params: SystemParams) -> ReducedState:
    """Particle exchange for identical particles; q is unchanged."""
    if not params.identical:
        raise DomainError("exchange symmetry requires identical particles")
    v = swap_matrix(state.q) @ np.array([state.m1, state.m2, state.m3, state.p])
    return ReducedState(v[0], v[1], v[2], state.q, v[3])


def time_reversal(
    state: ReducedState, params: SystemParams
) -> tuple[ReducedState, SystemParams]:
    """Reverses time: flip the signs of B and of all momenta."""
    flipped = ReducedState(-state.m1, -state.m2, -state.m3, state.q, -state.p)
    return flipped, replace(params, B=-params.B)


def opposite_charge(
    state: ReducedState, params: SystemParams
) -> tuple[ReducedState, SystemParams]:
    """Conjugates the (e1, e2) system to the (e1, -e2) one.

    The accompanying potential must transform as V1(q) = -V(pi - q), which
    holds automatically for the built-in cotangent potential.
    """
    mapped = ReducedState(-state.m1, -state.m2, state.m3, np.pi - state.q, -state.p)
    return mapped, replace(params, e2=-params.e2)
