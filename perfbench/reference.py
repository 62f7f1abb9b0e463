"""Plain numpy versions of the updates the workloads time.

Each loop performs the same floating-point operations, in the same order,
as affiter's forward-backward step on ``min ||x||_1 + 1/2 ||x - a||^2``:
the gradient layer ``y = x - gamma (x - a)``, the soft-threshold resolvent at
``gamma``, then ``x_{n+1} = xbar_n + lam (y - xbar_n)`` with ``lam = 1``.
They yield ``x_1 .. x_N``.  They serve as the reference the library's
iterates are checked against and as the bare-numpy time the library's
per-step overhead is measured against.
"""

from __future__ import annotations

import math

import numpy as np


def _fb_layers(xbar, a, gamma):
    y = xbar - gamma * (xbar - a)
    return np.sign(y) * np.maximum(np.abs(y) - gamma * 1.0, 0.0)


def memoryless_fb(x0, a, gamma, n_iters):
    x = x0
    for _ in range(n_iters):
        x = x + 1.0 * (_fb_layers(x, a, gamma) - x)
        yield x


def inertial_fb(x0, a, gamma, n_iters, tau):
    """Nesterov extrapolation ``eta_n = (n - 1) / (n + tau)``, ``eta_0 = 0``."""
    prev, x = None, x0
    for n in range(n_iters):
        eta = (n - 1.0) / (n + tau) if n > 0 else 0.0
        xbar = x if eta == 0.0 else (-eta) * prev + (1.0 + eta) * x
        prev, x = x, xbar + 1.0 * (_fb_layers(xbar, a, gamma) - xbar)
        yield x


def cesaro_fb(x0, a, gamma, n_iters):
    """Running mean of the whole orbit."""
    total = x0.copy()
    for n in range(n_iters):
        xbar = total / (n + 1.0)
        x = xbar + 1.0 * (_fb_layers(xbar, a, gamma) - xbar)
        total = total + x
        yield x


def gronwall_recurrence(theta0, nu, eps):
    """``env_n = exp(nu_n) env_{n-1} + eps_n`` with ``env_{-1} = theta0``."""
    env, out = theta0, []
    for nu_n, eps_n in zip(nu, eps):
        env = math.exp(nu_n) * env + eps_n
        out.append(env)
    return np.array(out)
