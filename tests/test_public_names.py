"""Every public name of the package has a caller in the package, or is a listed oracle,
and every parameter of a function in the package is read."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "shellgamma"

# exported with no caller in the package: independent oracles and diagnostics,
# which the suite reads beside the route the studies take
ORACLES_AND_DIAGNOSTICS = {
    "validate_patch",                       # the invariants of a patch at the nodes
    "q3_from_energy",                       # Q3 = D^2 W(Id) by finite differences
    "averaged_displacement_sym_grad",       # compactness side, in displacement form
    "discrete_l2_distance",
    "shell_energy_tangential_lower_bound",  # (1/2) Q2 of the tangential strain <= W
    "maximize_action",                      # the whole ActionMaximum of one f^h
}


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_names(path):
    """Names a module reads or imports; a definition alone is not a use."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_or_is_a_listed_oracle():
    used = set().union(*(used_names(path) for path in SRC.glob("*.py")
                         if path.name != "__init__.py"))
    exported = exported_names()
    assert ORACLES_AND_DIAGNOSTICS <= exported
    assert sorted(exported - used - ORACLES_AND_DIAGNOSTICS) == []
    # a listed name that gains a caller leaves the list
    assert sorted(ORACLES_AND_DIAGNOSTICS & used) == []


def table_builders(tree):
    """The lambdas a `_Kind` config table entry builds with: their signature is the table's."""
    return {id(arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Kind"
            for arg in node.args if isinstance(arg, ast.Lambda)}


def unread_parameters(path):
    """(line, function, parameter) of each parameter that its function's body never reads.

    A method's receiver is not counted: no caller passes it as a value.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = table_builders(tree)
    receivers = {id(fn.args.args[0]) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.args.args}
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)) or id(fn) in exempt:
            continue
        a = fn.args
        params = [p for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None and id(p) not in receivers]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        reads = {node.id for stmt in body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(fn.lineno, getattr(fn, "name", "<lambda>"), p.arg)
                   for p in params if p.arg not in reads]
    return unread


def test_every_parameter_is_read():
    unread = {path.name: found for path in sorted(SRC.glob("*.py"))
              if (found := unread_parameters(path))}
    assert unread == {}
