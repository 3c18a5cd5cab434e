"""Tour of the fundamental solution for the classical kinetic operator.

Shows the covariance matrix, the kernel value at the origin one time
unit above the pole, the vanishing operator residual, the mass
identity, and the exact scaling law under anisotropic dilations.
"""

import math

import numpy as np

from kolmo import (
    KernelContext,
    Point,
    check_homogeneity,
    check_kernel_pde,
    covariance,
    gamma,
    kernel_mass,
    kolmogorov_spec,
)


def main():
    spec = kolmogorov_spec()
    ctx = KernelContext(spec)
    exps = spec.exponents()
    print(f"exponents alpha = {exps.alpha}, homogeneous dimension Q = {exps.Q}")

    C = covariance(ctx, 1.0).C
    print("covariance C(1):")
    print(np.array2string(C, precision=6))
    print("closed form      [[1, 1/2], [1/2, 1/3]]")

    z = Point([0.0, 0.0], 1.0)
    val = gamma(ctx, z)
    print(f"\nGamma((0,0), 1) = {val:.12f}")
    print(f"sqrt(3)/(2 pi)  = {math.sqrt(3.0) / (2.0 * math.pi):.12f}")

    z = Point([0.4, -0.3], 0.8)
    p = Point([0.1, 0.2], -0.2)
    print(f"\noperator residual at a generic point: {check_kernel_pde(ctx, z, p):.3e}")

    mass = kernel_mass(spec, 0.7)
    print(f"kernel mass at t = 0.7: {mass:.10f} (trace-free drift, expect 1)")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        w = Point(rng.uniform(-1, 1, size=2), rng.uniform(0.2, 1.5))
        r = float(np.exp(rng.uniform(-0.5, 0.5)))
        worst = max(worst, abs(check_homogeneity(ctx, w, r) - 1.0))
    print(f"worst homogeneity defect over 20 random dilations: {worst:.3e}")


if __name__ == "__main__":
    main()
