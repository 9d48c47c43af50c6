"""The package's public surface: ``__all__`` is what the package imports."""

import types

import pytest

import fermion_noise
from fermion_noise import circuits, gaussian, noise

# Wrappers, aliases and duplicates with one remaining name each.
DELETED_FUNCTIONS = [
    (noise, "attenuated_state"),
    (noise, "sensitivity"),
    (circuits, "circuit_error_curve"),
    (circuits, "_layer_blocks"),
    (gaussian, "correlation_from_occupied"),
]
DELETED_METHODS = [
    ("PauliChannel", "depolarizing_attenuation"),
    ("PauliChannel", "worst_case_attenuation"),
    ("EncodingWeightModel", "weight_blocks"),
    ("EncodingWeightModel", "count_blocks"),
    ("EncodingWeightModel", "weight_matrix"),
    ("EncodingWeightModel", "max_weight"),
    ("Lattice", "majorana_index"),
    ("Lattice", "majorana_site"),
    ("Lattice", "majorana_flavor"),
]
# Acceptance-criterion entry points and the dense references tests compare against.
KEPT = ["measurement_error", "evolve_state", "lightcone_correlation_check", "pair_attenuation",
        "tight_binding_ground_state_2d", "damped_random_state",
        "bk_number_operator_weight_from_beta", "attenuation_matrix", "interleave_flavors",
        "snake_index"]


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
    assert not hasattr(getattr(fermion_noise, cls), name)
