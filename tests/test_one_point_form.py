"""The library has one point form, the (K, N+1) row block.  Point and
KernelContext are the one-point form of the K = 1 kernel calls and of
taylor.flow_Y only: the source is read with ``ast``, and the test fails
where any other code names them.  Point keeps its check of finite
coordinates.  The K = 1 wrappers that nothing but tests called are gone
and must stay gone."""

import ast
from pathlib import Path

import numpy as np
import pytest

import kolmo
from kolmo import DomainError, Point

SRC = Path(__file__).resolve().parents[1] / "src" / "kolmo"
ONE_POINT_NAMES = {"Point", "KernelContext"}
# file -> the top-level definitions (or "<import>") that may name them;
# None admits the whole file
ALLOWED = {
    "group.py": None,
    "kernel.py": {"KernelContext", "covariance", "gamma", "gamma_grad", "gamma_hess_m"},
    "taylor.py": {"<import>", "flow_Y"},
    "__init__.py": {"<import>"},
}


def named(node):
    """The names a node spells: a name, an attribute, an imported name or
    a defined class or function."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return {node.name}
    return set()


def one_point_uses(path):
    """(scope, name) for every Point or KernelContext that a file names,
    scope being its top-level definition or "<import>"."""
    uses = []
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            scope = "<import>"
        else:
            scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            uses += [(scope, name) for name in named(node) & ONE_POINT_NAMES]
    return uses


def test_point_and_kernel_context_stay_in_their_one_point_calls():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        stray += [f"{path.name}: {name} in {scope}"
                  for scope, name in one_point_uses(path) if scope not in allowed]
    assert not stray, "one-point names outside their calls:\n" + "\n".join(stray)


# module -> deleted one-point wrappers and test-only helpers; the kernel
# jet, C(t), traj_increment_rows and verify._slice_integrals serve their
# callers (convolve_solution lives in tests/convolution.py), and
# kernel._checked_C is the one positive-definiteness verdict on C(t)
DELETED = {
    "kernel": ("gamma_hess", "gamma_Y", "check_kernel_pde", "check_homogeneity"),
    "group": ("origin", "hormander_check"),
    "matrixcalc": ("spd_min_eigen", "SpdReport"),
    "taylor": ("traj_increment", "lie_derivative_fd", "validate_bundle"),
    "verify": ("cutoff_eta", "convolve_solution"),
}
# class -> deleted methods that nothing called; check reads A's
# eigenvalues from one eigvalsh
DELETED_METHODS = {"OperatorSpec": ("to_json_dict", "lam", "Lam")}


def test_deleted_wrappers_stay_deleted():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(getattr(kolmo, module), name), f"{module}.{name}"
            assert not hasattr(kolmo, name), name
    for cls, names in DELETED_METHODS.items():
        for name in names:
            assert not hasattr(getattr(kolmo, cls), name), f"{cls}.{name}"
    # gamma takes its pole from the caller
    assert kolmo.gamma.__defaults__ is None


def test_point_rejects_non_finite_coordinates():
    for x, t in (([np.inf], 0.0), ([0.0], np.nan)):
        with pytest.raises(DomainError):
            Point(x, t)
