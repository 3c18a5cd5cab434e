"""Two worked connectivity problems for the flow planner.

First a drift whose matrix exponential truncates, so every flow
parameter has a closed form; then a drift with a diagonal term, where
the level equation s (1 - exp(-s^2)) = target is transcendental and the
planner falls back to bisection plus a correction loop.  Points are
(N+1,) rows (x_1, .., x_N, t).
"""

import numpy as np

from kolmo import connect, load_spec, verify_plan

SPECS = "specs"


def show_plan(plan, spec, label):
    print(f"\n{label}")
    print(f"  {np.array2string(plan.source)} -> {np.array2string(plan.target)}")
    for seg in plan.segments:
        if seg.kind == "X":
            print(f"  X  v = {np.array2string(seg.v, precision=4)}  s = {seg.s:+.9f}")
        else:
            print(f"  Y                     s = {seg.s:+.9f}")
    check = verify_plan(plan, spec)
    print(f"  {check['segments']} segments, endpoint error {check['endpoint_error']:.3e}, "
          f"path length {check['length']:.4f}")


def main():
    kinetic = load_spec(f"{SPECS}/kinetic.json")
    plan = connect(np.array([1.0, 1.0, 1.0]), np.zeros(3), kinetic)
    show_plan(plan, kinetic, "nilpotent drift (closed-form parameters)")
    print(f"  expected X parameters: -1, then -(2)^(1/3) = {-2.0 ** (1 / 3):.9f}")

    drifted = load_spec(f"{SPECS}/kinetic_drifted.json")
    plan = connect(np.array([0.0, 2.0, 0.0]), np.zeros(3), drifted)
    show_plan(plan, drifted, "generic drift (bisection + correction)")
    s = plan.segments[0].s
    print(f"  level equation residual |s(1 - e^(-s^2)) + 2| = "
          f"{abs(s * (1.0 - np.exp(-s * s)) + 2.0):.3e}")


if __name__ == "__main__":
    main()
