import numpy as np
import pytest

from momabs.linalg import StateSpaceModel, eigenvalues, spectra_disjoint


def random_stable_system(rng, n=4, m=2, p=2, margin=1.0):
    """Random Hurwitz system with a spectral abscissa at most -margin."""
    a0 = rng.standard_normal((n, n))
    shift = eigenvalues(a0).max_real_part + margin
    a = a0 - shift * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return StateSpaceModel(a=a, b=b, c=c)


def non_normal_stable_system(rng, n=4, m=2, p=2, cond=10.0):
    """Random Hurwitz system a = v d v^-1 whose eigenvector basis v has
    condition number ``cond`` (for n > 1); d has complex pairs with real
    parts in [-2, -0.2] and imaginary parts in [0.5, 5]."""
    d = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        re, im = -rng.uniform(0.2, 2.0), rng.uniform(0.5, 5.0)
        d[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
    if n % 2:
        d[-1, -1] = -rng.uniform(0.2, 2.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.geomspace(1.0, cond, n)
    v, v_inv = (u * sv) @ w, (w.T / sv) @ u.T
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return StateSpaceModel(a=v @ d @ v_inv, b=b, c=c)


def rotation_block(freq):
    """2x2 generator with spectrum {+i freq, -i freq}."""
    return np.array([[0.0, freq], [-freq, 0.0]])


def random_direct_interpolant(rng, sys, freq=None):
    from momabs.moments import DirectInterpolant

    freq = freq if freq is not None else float(rng.uniform(0.5, 5.0))
    s = rotation_block(freq)
    while True:
        l = rng.standard_normal((sys.m, 2))
        if spectra_disjoint(s, sys.a) and np.linalg.norm(l) > 0.1:
            return DirectInterpolant(s=s, l=l)


def random_swapped_interpolant(rng, sys, freq=None):
    from momabs.moments import SwappedInterpolant

    freq = freq if freq is not None else float(rng.uniform(0.5, 5.0))
    q = rotation_block(freq)
    while True:
        r = rng.standard_normal((2, sys.p))
        if spectra_disjoint(q, sys.a) and np.linalg.norm(r) > 0.1:
            return SwappedInterpolant(q=q, r=r)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
