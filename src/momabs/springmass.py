"""Two-spring two-mass benchmark: reference matrices, gains, and signals.

A mass m1 is anchored through a spring k1 and coupled to a mass m2 through
a spring k2; forces act on both masses and the measured outputs are the
two displacements.  All reference values here are the published design for
this benchmark and back the golden tests.
"""

from __future__ import annotations

import numpy as np

from .linalg import StateSpaceModel, block_diag_spectrum
from .signals import SignalSpec, Term

K1 = 100.0  # N/m
K2 = 50.0  # N/m
M1 = 20.0  # kg
M2 = 10.0  # kg

CLOSED_LOOP_POLES = (-3 + 1.5j, -3 - 1.5j, -5 + 2j, -5 - 2j)
ABSTRACT_POLES = (-5 + 5j, -5 - 5j)

X0 = np.array([6.7794, -1.3348, -0.5875, 1.2143])
XI0 = np.array([-4.2811, 0.8733])


def concrete() -> StateSpaceModel:
    """Four-state model: positions then velocities, forces as inputs."""
    a = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-(K1 + K2) / M1, K2 / M1, 0.0, 0.0],
            [K2 / M2, -K2 / M2, 0.0, 0.0],
        ]
    )
    b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0 / M1, 0.0], [0.0, 1.0 / M2]])
    c = np.hstack([np.eye(2), np.zeros((2, 2))])
    return StateSpaceModel(a=a, b=b, c=c)


def abstract() -> StateSpaceModel:
    """Two-state harmonic abstraction with four inputs."""
    f = np.array([[0.0, 10.0], [-10.0, 0.0]])
    g = np.hstack([np.zeros((2, 2)), np.eye(2)])
    h = np.eye(2)
    return StateSpaceModel(a=f, b=g, c=h)


def embedding_p() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 10.0], [-10.0, 0.0]])


def l_hat() -> np.ndarray:
    return np.array([[-1850.0, -50.0], [-50.0, -950.0]])


def m_map() -> np.ndarray:
    return np.hstack([np.eye(2), np.zeros((2, 2))])


def n_map_published() -> np.ndarray:
    """Link matrix N as published for this benchmark.

    Entry (0, 0) carries a suspected sign typo: the construction
    n = [-l_hat m; e] gives +1850 there, and rows 0-1 are unconstrained by
    the witness equations for this g anyway.  Rows 2-3 are authoritative.
    """
    return np.array(
        [
            [-1850.0, 50.0, 0.0, 0.0],
            [50.0, 950.0, 0.0, 0.0],
            [0.0, -10.0, 1.0, 0.0],
            [10.0, 0.0, 0.0, 1.0],
        ]
    )


def gamma_map() -> np.ndarray:
    return np.vstack([np.eye(2), np.zeros((2, 2))])


def closed_loop_target() -> np.ndarray:
    return block_diag_spectrum(CLOSED_LOOP_POLES)


def abstract_target() -> np.ndarray:
    return block_diag_spectrum(ABSTRACT_POLES)


def v_signal() -> SignalSpec:
    """Abstract-level excitation used in the forced hierarchical run."""
    return SignalSpec(
        (
            (Term("sin", amplitude=51.032, frequency=4.0),),
            (Term("square", amplitude=-25.945, frequency=6.0),),
            (Term("zero"),),
            (Term("cos", amplitude=48.056, frequency=3.0),),
        )
    )


def u_signal() -> SignalSpec:
    """Plant-level excitation used in the forced link run."""
    return SignalSpec(
        (
            (Term("square", amplitude=296.881, frequency=2.0),),
            (Term("cos", amplitude=-161.659, frequency=3.0),),
        )
    )
