import numpy as np
import pytest


def random_spd(rng, n, batch=None):
    """Well-conditioned random SPD matrices."""
    shape = (batch, n, n) if batch else (n, n)
    a = rng.standard_normal(shape)
    return a @ np.swapaxes(a, -1, -2) + n * np.eye(n)


def assemble_L_loop(log_samples, gamma_g, w):
    """Literal double-loop form of ``selection.assemble_L`` (reference oracle):
    ``L = -sum_ij (gamma_G)_ij D_ij W W^T D_ij`` with ``D_ij = log X_i - log X_j``."""
    logs = np.asarray(log_samples, dtype=np.float64)
    n, m, _ = logs.shape
    p = w @ w.T
    out = np.zeros((m, m))
    for i in range(n):
        for j in range(n):
            d = logs[i] - logs[j]
            out -= gamma_g[i, j] * (d @ p @ d)
    return 0.5 * (out + out.T)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
