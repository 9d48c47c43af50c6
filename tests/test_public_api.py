"""The package's public surface: ``__all__`` is what the package imports."""

import ast
import pathlib
import types

import pytest

import conftest
import fermion_noise
from fermion_noise import bounds, circuits, encodings, gaussian, lattice, noise

# Wrappers, aliases and duplicates with one remaining name each, and dense
# references that only the tests use (they build them in conftest.py).
DELETED_FUNCTIONS = [
    (noise, "attenuated_state"),
    (noise, "sensitivity"),
    (circuits, "circuit_error_curve"),
    (circuits, "_layer_blocks"),
    (gaussian, "correlation_from_occupied"),
    (gaussian, "correlation_from_mode_occupations"),
    (lattice, "torus_distance"),
    (noise, "attenuation_matrix"),
    (encodings, "interleave_flavors"),
    (circuits, "evolve_state"),
    (circuits, "lightcone_correlation_check"),
    (circuits, "LightConeReport"),
    (gaussian, "random_pure_state"),
    (gaussian, "power_law_mask"),
    (gaussian, "damped_random_state"),
    (gaussian, "decay_constant"),
    (noise, "_drop_box"),
    (noise, "_fenwick_drop_box"),
    (noise, "_jordan_wigner_drop_box"),
    (gaussian, "haar_special_orthogonal"),
    (lattice, "snake_index"),
    (encodings, "StringComposition"),
    (encodings, "bk_beta_matrix"),
    (encodings, "_bk_beta_inverse"),
    (encodings, "_doubling"),
    (encodings, "bk_number_operator_weight_from_beta"),
    (gaussian, "tight_binding_ground_state_2d"),
    (gaussian, "_ground_state"),
    (noise, "pair_attenuation"),
    (circuits, "circuit_expectation"),
    (gaussian, "GaussianState"),
    (encodings, "_fenwick_drop_box"),
    (encodings, "_jordan_wigner_drop_box"),
    (circuits, "heisenberg_observable"),
    (noise, "_mode_etas"),
    (noise, "_checked_etas"),
]
DELETED_METHODS = [
    ("PauliChannel", "depolarizing_attenuation"),
    ("PauliChannel", "worst_case_attenuation"),
    ("EncodingWeightModel", "weight_blocks"),
    ("EncodingWeightModel", "count_blocks"),
    ("EncodingWeightModel", "weight_matrix"),
    ("EncodingWeightModel", "max_weight"),
    ("EncodingWeightModel", "displacement_weights"),
    ("Lattice", "majorana_index"),
    ("Lattice", "majorana_site"),
    ("Lattice", "majorana_flavor"),
    ("Lattice", "distance"),
    ("GaussianState", "from_correlation_matrix"),
    ("QuadraticObservable", "coefficients"),
    ("Layer", "apply"),
    ("Lattice", "displacement_index"),
    ("Lattice", "site_coords"),
    ("QuadraticObservable", "scaled"),
    ("EncodingWeightModel", "string_composition"),
    ("Circuit", "light_cone_radius"),
    ("ModeDiagonalState", "gamma"),
    ("ModeDiagonalState", "vacuum"),
    ("QuadraticObservable", "momentum_occupation"),
    ("MomentumGrid", "m_vectors"),
    ("Lattice", "displacement_box"),
    ("Lattice", "displacement_multiplicity"),
    ("Lattice", "fold"),
    ("Lattice", "box_sum"),
    ("EncodingWeightModel", "drop_box"),
    ("QuadraticObservable", "coefficient_trace_norm"),
    ("MomentumGrid", "torus_index"),
    ("Lattice", "coords"),
]
# Public names that no other package module refers to, each with why it stays.
KEPT = {
    "noisy_expectation": "Proposition 1's measurement-noise setting (criterion 3)",
    "measurement_error": "Proposition 1's measurement-noise setting (criterion 3)",
    "jump_scaling_probe": "criterion 8's fragile finite-size probe",
    "lipschitz_scaling_probe": "criterion 8's stable finite-size probe",
    "snake_index_vector": "the jw2d_snake qubit order read whole; the package reads it "
                          "per site set",
    "occupied_modes": "the lowest modes of any energies; fermi_sea cuts the same order, "
                      "kept on the grid per dispersion",
    "__version__": "the package version",
}
# Public methods and properties of package classes that no package module
# looks up, each with why it stays.
KEPT_METHODS = {
    "Circuit.depth": "the number of layers, the depth the circuit criteria sweep "
                     "(criteria 2, 10 and 11)",
    "QuadraticObservable.number": "the site occupation n_x, the local observable of "
                                  "Proposition 1's measurement-noise setting (criterion 3)",
    "ModeDiagonalState.expectation": "the noiseless <O> that noisy_expectation's shift is "
                                     "measured from (criterion 3)",
    "Lattice.distance_matrix": "the dense N x N distance table of the tests and the "
                               "benchmark's tracer (ROADMAP direction 8)",
    "Layer.gates": "one layer's draw of the gates on some of its blocks; a sweep draws "
                   "every layer's in one batch, and the tests' pullback draws layer by "
                   "layer to check that batch (criterion 2)",
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fermion_noise import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fermion_noise.__all__)
    assert len(set(fermion_noise.__all__)) == len(fermion_noise.__all__)


def test_every_entry_resolves_and_none_is_a_module():
    assert "__version__" in fermion_noise.__all__
    for name in fermion_noise.__all__:
        assert not isinstance(getattr(fermion_noise, name), types.ModuleType), name
    assert set(KEPT) <= set(fermion_noise.__all__)


@pytest.mark.parametrize("module,name", DELETED_FUNCTIONS)
def test_deleted_functions_are_gone(module, name):
    assert name not in fermion_noise.__all__
    assert not hasattr(fermion_noise, name)
    assert not hasattr(module, name)


@pytest.mark.parametrize("cls,name", DELETED_METHODS)
def test_deleted_methods_are_gone(cls, name):
    # A class that left the package for the tests is read there.
    owner = getattr(fermion_noise, cls) if hasattr(fermion_noise, cls) else getattr(conftest, cls)
    assert not hasattr(owner, name)


def _referenced_names(package):
    """Names that the package's modules, ``__init__.py`` aside, use, import or look up.

    An attribute counts only when it is looked up on a package module
    (``noise.momentum_error_map``): a method of the same name, such as a
    classmethod ``QuadraticObservable.f``, is no caller of a module function
    ``f``.
    """
    names = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        # Names this file binds to sibling modules: ``from . import m``.
        modules = {alias.asname or alias.name for node in nodes
                   if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                   for alias in node.names}
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    getattr(node.value, "id", None) in modules:
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    # A public name is either used by the package (the CLI and what it calls)
    # or kept for a stated reason; a kept name that gains a caller leaves KEPT.
    referenced = _referenced_names(pathlib.Path(fermion_noise.__file__).parent)
    public = set(fermion_noise.__all__)
    uncalled = sorted(public - referenced - set(KEPT))
    stale = sorted(set(KEPT) & referenced)
    assert uncalled == [], f"public names with no caller and no reason in KEPT: {uncalled}"
    assert stale == [], f"KEPT names that have a caller: {stale}"


def _public_methods(package):
    """``Class.name`` of every public function or property in a package class body."""
    return {f"{node.name}.{item.name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _looked_up_attributes(package):
    """Every attribute name the package's modules, ``__init__.py`` aside, look up."""
    return {node.attr
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}


def test_every_public_method_has_a_caller_or_a_reason():
    # As for module names: a public method or property of a package class is
    # looked up somewhere in the package (any ``x.name``) or kept for a stated
    # reason, and a kept one that gains a caller leaves KEPT_METHODS.
    package = pathlib.Path(fermion_noise.__file__).parent
    methods = _public_methods(package)
    looked_up = _looked_up_attributes(package)
    uncalled = sorted(m for m in methods - set(KEPT_METHODS) if m.split(".")[1] not in looked_up)
    stale = sorted(m for m in KEPT_METHODS if m.split(".")[1] in looked_up or m not in methods)
    assert uncalled == [], f"public methods with no caller and no reason: {uncalled}"
    assert stale == [], f"KEPT_METHODS entries that have a caller or are gone: {stale}"


def test_only_the_lattice_calls_distance_matrix():
    # The cached N x N distance matrix is for tests and the benchmark; every
    # package path measures the index sets it needs with ``pair_distances``.
    package = pathlib.Path(fermion_noise.__file__).parent
    callers = [f"{path.name}:{node.lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "lattice.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and "distance_matrix" in
               (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert callers == []


def test_encoding_internals_stay_in_their_module():
    # An encoding's Pauli strings, and the drop tori summed from them, live in
    # encodings.py: no module imports a sibling's private name, and no other
    # module reaches into the model's cache of tori.
    package = pathlib.Path(fermion_noise.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
            elif path.name != "encodings.py" and "_last_drop_torus" in (
                    getattr(node, "attr", None), getattr(node, "id", None)):
                found.append(f"{path.name}:{node.lineno} names _last_drop_torus")
    assert found == []


def test_derived_arrays_are_cached_properties():
    # An array a lattice, grid or state derives from itself alone is a
    # ``functools.cached_property``; no attribute starts as a ``None``
    # sentinel but ``_distance_matrix``, which the benchmark's tracer reads.
    package = pathlib.Path(fermion_noise.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and getattr(node.value, "value", 0) is None
             for target in getattr(node, "targets", [getattr(node, "target", None)])
             if isinstance(target, ast.Attribute) and target.attr != "_distance_matrix"]
    assert found == []


def test_the_noise_reaches_the_library_as_etas():
    # The library takes noise as its three etas: no public function or method
    # names a channel or a mode, but mode_etas, the one reader of a channel in
    # a mode; only it and the CLI's option check read MODES.
    package = pathlib.Path(fermion_noise.__file__).parent
    found = []
    for module in (noise, circuits, bounds, encodings):
        path = pathlib.Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") \
                    and node.name != "mode_etas":
                found += [f"{path.name}:{node.lineno} {node.name}({arg.arg})"
                          for arg in node.args.args + node.args.kwonlyargs
                          if arg.arg in ("mode", "channel")]
    assert found == []
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text())
        tree.body = [node for node in tree.body
                     if (path.name, getattr(node, "name", None)) != ("noise.py", "mode_etas")]
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id == "MODES"
                    and isinstance(node.ctx, ast.Load)]
    assert readers == []
