"""Tour of the fundamental solution for the classical kinetic operator.

Shows the covariance matrix, the kernel value at the origin one time
unit above the pole, the vanishing operator residual, the mass
identity, and the exact scaling law under anisotropic dilations.
Points are (1, N+1) row blocks (x_1, .., x_N, t).
"""

import math

import numpy as np

from kolmo import dilate_rows, kernel_jet_rows, kernel_mass, kolmogorov_spec


def main():
    spec = kolmogorov_spec()
    exps = spec.exponents()
    origin = np.zeros((1, spec.N + 1))
    print(f"exponents alpha = {exps.alpha}, homogeneous dimension Q = {exps.Q}")

    C = spec.C(1.0)
    print("covariance C(1):")
    print(np.array2string(C, precision=6))
    print("closed form      [[1, 1/2], [1/2, 1/3]]")

    val = kernel_jet_rows(spec, [[0.0, 0.0, 1.0]], origin, derivatives=False)[0]
    print(f"\nGamma((0,0), 1) = {val:.12f}")
    print(f"sqrt(3)/(2 pi)  = {math.sqrt(3.0) / (2.0 * math.pi):.12f}")

    # L Gamma = sum a_ij d_ij Gamma + Y Gamma, from one jet row
    jet, m = kernel_jet_rows(spec, [[0.4, -0.3, 0.8]], [[0.1, 0.2, -0.2]]), spec.m
    residual = float(np.sum(spec.A * jet.hess[0, :m, :m])) + float(jet.Y[0])
    print(f"\noperator residual at a generic point: {residual:.3e}")

    mass = kernel_mass(spec, 0.7)
    print(f"kernel mass at t = 0.7: {mass:.10f} (trace-free drift, expect 1)")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        w = np.append(rng.uniform(-1, 1, size=2), rng.uniform(0.2, 1.5))[None]
        r = float(np.exp(rng.uniform(-0.5, 0.5)))
        # Gamma(delta_r w) r^Q / Gamma(w) = 1 for the principal drift
        g, g_r = kernel_jet_rows(spec, np.vstack([w, dilate_rows(r, w, exps)]), origin,
                                 derivatives=False)
        worst = max(worst, abs(float(g_r * r**exps.Q / g) - 1.0))
    print(f"worst homogeneity defect over 20 random dilations: {worst:.3e}")


if __name__ == "__main__":
    main()
