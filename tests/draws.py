"""Seeded random inputs that several test modules draw, each defined once.
A function draws the same numbers from a generator in the same state."""

import numpy as np

from q2synth import numerics as nm
from q2synth.circuit import su4_normalize


def su2(rng):
    """A Haar-random SU(2) matrix."""
    u = nm.haar_unitary(2, rng)
    return u / np.sqrt(np.linalg.det(u))


def su4(rng):
    """A Haar-random SU(4) matrix."""
    return su4_normalize(nm.haar_unitary(4, rng))[0]


def symmetric_unitary(rng, angles=None):
    """q^T diag(e^{i a}) q for a random real orthogonal q, with the given
    angles a, else four drawn uniformly from [-pi, pi)."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if angles is None:
        angles = rng.uniform(-np.pi, np.pi, size=4)
    return q.T @ np.diag(np.exp(1j * np.asarray(angles))) @ q
