#!/usr/bin/env python3
"""Averaging rescues a non-convergent fixed-point iteration.

The half-turn map x -> -x is nonexpansive with the origin as its only fixed
point, yet the plain iteration x_{n+1} = -x_n orbits forever.  Applying the
map to a short moving average of the orbit turns the recursion into
x_{n+1} = -(x_n + x_{n-1})/2, whose characteristic roots have modulus
sqrt(1/2): geometric convergence out of nowhere.
"""

import numpy as np

from affiter import krasnoselskii_mann, linear_operator, memoryless, window


def main():
    neg = linear_operator(-np.eye(2), alpha=1.0)
    x0 = np.array([1.0, 0.0])

    runs = {}
    base = krasnoselskii_mann(neg, x0=x0, weights=memoryless(),
                              max_iters=60, stop_residual=0.0)
    runs["memoryless"] = base.solve()[1]
    for w in (2, 3):
        preset = krasnoselskii_mann(neg, x0=x0, weights=window(w),
                                    max_iters=60, stop_residual=0.0)
        runs[f"window({w})"] = preset.solve()[1]

    print(f"{'n':>4}" + "".join(f"{name:>16}" for name in runs))
    for n in (0, 5, 10, 20, 40, 60):
        row = "".join(f"{np.linalg.norm(tr.points[n]):>16.3e}" for tr in runs.values())
        print(f"{n:>4}{row}")
    print("\nroot modulus of t^2 + t/2 + 1/2:",
          f"{abs(np.roots([1.0, 0.5, 0.5])[0]):.6f}")


if __name__ == "__main__":
    main()
