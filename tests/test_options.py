"""Every option of the library is an option some caller uses.  A
defaulted parameter of a function in src/kolmo, or a defaulted field of
one of its dataclasses, must be passed a value other than its default by
at least one call in src/ or perfbench/; otherwise it is a constant and
belongs in the code as one.  Tests and demos are not callers: an option
that only a test sets is a constant the test can monkeypatch.  The calls
are read with ``ast``.  Forwarding a parameter of the enclosing function
by name sets the callee's parameter only when the forwarded parameter is
itself set, and a parameter without a default is always set."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kolmo"
CALLERS = ("src", "perfbench")


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


class Signature:
    """The parameters of a function or dataclass, in call order, with the
    default expression of each defaulted one; ``method`` means that an
    attribute call passes the first parameter implicitly."""

    def __init__(self, where, names, defaults, method=False):
        self.where, self.names, self.defaults, self.method = where, names, defaults, method


def _function_signature(where, fn, method):
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults.update({a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None})
    return Signature(where, positional + [a.arg for a in args.kwonlyargs], defaults,
                     method and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in fn.decorator_list))


def _init_false(value):
    """True for a field(..., init=False): state, not a constructor option."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and getattr(kw.value, "value", True) is False
        for kw in value.keywords)


def _dataclass_signature(where, cls):
    fields = [s for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
              and not _init_false(s.value)]
    return Signature(where, [f.target.id for f in fields],
                     {f.target.id: f.value for f in fields if f.value is not None})


def library_signatures():
    """name -> every Signature of that name among the functions (nested
    ones and methods too) and dataclasses of src/kolmo."""
    out = {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = _function_signature(f"{prefix}.{child.name}", child, in_class)
                out.setdefault(child.name, []).append(sig)
                visit(child, f"{prefix}.{child.name}", False)
            elif isinstance(child, ast.ClassDef):
                where = f"{prefix}.{child.name}"
                init = [f for f in child.body
                        if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                if _is_dataclass(child):
                    out.setdefault(child.name, []).append(_dataclass_signature(where, child))
                elif init:  # a call of the class passes all but self
                    sig = _function_signature(f"{where}.__init__", init[0], False)
                    sig.names = sig.names[1:]
                    out.setdefault(child.name, []).append(sig)
                visit(child, f"{prefix}.{child.name}", True)
            else:
                visit(child, prefix, in_class)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    return out


def _same_value(a, b):
    if ast.dump(a) == ast.dump(b):
        return True
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except (ValueError, TypeError, SyntaxError):
        return False


def _passed(sig, call):
    """(parameter, value expression) for each parameter the call passes;
    a starred or double-starred argument passes every parameter it may
    reach, as the value None."""
    names = sig.names[1:] if sig.method and isinstance(call.func, ast.Attribute) else sig.names
    out = []
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return out + [(n, None) for n in names[k:]]
        if k < len(names):
            out.append((names[k], arg))
    for kw in call.keywords:
        if kw.arg is None:
            out += [(n, None) for n in names]
        else:
            out.append((kw.arg, kw.value))
    return out


def _calls(tree, stem):
    """(call, enclosing) for every call, where enclosing maps each
    parameter of the innermost enclosing function to that function's
    qualified name, or to None outside src/kolmo and for a lambda."""
    found = []

    def visit(node, prefix, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            where = None
            if stem is not None and not isinstance(node, ast.Lambda):
                prefix = where = f"{prefix}.{node.name}"
            enclosing = {x.arg: where for x in a.posonlyargs + a.args + a.kwonlyargs}
        elif isinstance(node, ast.ClassDef) and stem is not None:
            prefix = f"{prefix}.{node.name}"
        if isinstance(node, ast.Call):
            found.append((node, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, prefix, enclosing)

    visit(tree, stem, {})
    return found


def unset_options():
    """'where(param)' for every defaulted parameter or field no call sets."""
    sigs = library_signatures()
    defaulted = {(s.where, p) for group in sigs.values() for s in group for p in s.defaults}
    # a direct non-default value sets a parameter outright; forwarding a
    # parameter of a src/kolmo function sets it when that one is set
    direct, forwards = set(), {}
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            stem = path.stem if path.parent == SRC else None
            for call, enclosing in _calls(ast.parse(path.read_text()), stem):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                for sig in sigs.get(name, []):
                    for param, value in _passed(sig, call):
                        key = (sig.where, param)
                        if key not in defaulted:
                            continue
                        if isinstance(value, ast.Name) and enclosing.get(value.id):
                            forwards.setdefault(key, set()).add((enclosing[value.id], value.id))
                        elif value is None or isinstance(value, ast.Name) and value.id in enclosing \
                                or not _same_value(value, sig.defaults[param]):
                            direct.add(key)
    is_set = set(direct)
    changed = True
    while changed:
        changed = False
        for key, sources in forwards.items():
            if key not in is_set and any(s not in defaulted or s in is_set for s in sources):
                is_set.add(key)
                changed = True
    return sorted(f"{where}({param})" for where, param in defaulted - is_set)


def test_every_defaulted_option_is_set_by_some_caller():
    unset = unset_options()
    assert not unset, (f"{len(unset)} defaulted options that no call sets; make "
                       "each a constant:\n" + "\n".join(unset))
