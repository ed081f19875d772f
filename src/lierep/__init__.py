"""Exact computations with semisimple Lie algebra representations.

The package namespace is lazy: a public name is imported from its home
module on first access, so `import lierep` loads no library module and a
command-line query loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_HOMES = {
    "rootsystem": ("RootSystem", "Weight", "RootVector", "build_root_system",
                   "parse_weight", "format_weight", "dominance_hull_equiv"),
    "weyl": ("WeylElement", "enumerate_weyl", "longest_element",
             "dominant_representative", "double_cosets", "twisted_orbit_id",
             "hc_inf_character", "CentralCharacterId"),
    "characters": ("partition_function", "weight_multiplicity",
                   "freudenthal_multiplicity", "character_of",
                   "weyl_dimension", "Character"),
    "enveloping": ("chevalley_basis", "normal_form", "transpose",
                   "hc_projection", "shapovalov", "casimir", "UElement"),
    "irreps": ("realize", "v_extremes", "zero_weight_spectrum",
               "kprv_multiplicity"),
    "tensor": ("Decomposition", "decompose", "decompose_all", "multiplicity",
               "extreme_types", "generalized_prv", "minuscule_decompose",
               "component_tests"),
    "centralchar": ("central_character", "sl2_omega"),
    "determinants": ("shapovalov_det", "prv_det", "DetPolynomial"),
    "hcmodules": ("HCParams", "invariants", "equivalent",
                  "finite_dimensional", "class_zero", "isoclass_count"),
    "errors": ("LieError", "CapExceeded", "InvariantViolation"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
