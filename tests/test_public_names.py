"""Every public name of the package has a caller in the package, or is a listed oracle."""

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
