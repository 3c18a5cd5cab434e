"""Schauder-type estimate verification on a manufactured solution.

Builds an analytic solution u with exact right-hand side f = L u,
measures the empirical modulus of f, fits the constant in the
second-derivative oscillation bound, and finishes with the planar
counterexample showing why plain continuity of f is not enough.
"""

from kolmo import (
    counterexample_certificate,
    kolmogorov_spec,
    manufacture,
    verify_schauder,
)


def main():
    spec = kolmogorov_spec()

    prob = manufacture("gaussian", spec)
    print(f"manufactured family 'gaussian', operator-vs-FD defect "
          f"{prob.details['fd_validation_worst']:.2e}")

    rep = verify_schauder(prob, pair_samples=800)
    print(f"constant coefficients: fitted constant {rep.fitted_constant:.4f} "
          f"over {rep.samples} pairs "
          f"(point ratio {rep.scaling['point']:.4f})")

    prob_var = manufacture("gaussian", spec, varcoeff_id="sin1")
    rep_var = verify_schauder(prob_var, pair_samples=800)
    print(f"Dini coefficients (a11 + 0.25 sin x1): fitted constant "
          f"{rep_var.fitted_constant:.4f}")

    print("\nplanar counterexample u = x y |log(x^2 + y^2)|^(1/2):")
    cert = counterexample_certificate()
    print(f"  per-decade growth of the partial Dini integrals of f: "
          + ", ".join(f"{g:.3f}" for g in cert["decade_growth"]))
    print(f"  |f(d, d)| down the diagonal:    "
          + ", ".join(f"{v:.3f}" for v in cert["f_diagonal"]))
    print(f"  |u_xy(d, d)| down the diagonal: "
          + ", ".join(f"{v:.3f}" for v in cert["mixed_diagonal"]))
    print(f"  classification: {cert['classification']} "
          f"(f stays continuous, u_xy blows up)")


if __name__ == "__main__":
    main()
