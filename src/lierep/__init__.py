"""Exact computations with semisimple Lie algebra representations."""

from .rootsystem import (RootSystem, Weight, RootVector, build_root_system,
                         parse_weight, format_weight, dominance_hull_equiv)
from .weyl import (WeylElement, enumerate_weyl, longest_element,
                   dominant_representative, double_cosets)
from .characters import (partition_function, weight_multiplicity,
                         freudenthal_multiplicity, character_of,
                         weyl_dimension, Character)
from .enveloping import (chevalley_basis, normal_form, transpose,
                         hc_projection, shapovalov, casimir, UElement)
from .irreps import (realize, v_extremes, zero_weight_spectrum,
                     kprv_multiplicity)
from .tensor import (Decomposition, decompose, decompose_all, multiplicity,
                     extreme_types, generalized_prv, minuscule_decompose,
                     component_tests)
from .centralchar import (central_character, hc_inf_character, sl2_omega,
                          twisted_orbit_id, CentralCharacterId)
from .determinants import shapovalov_det, prv_det, DetPolynomial
from .hcmodules import (HCParams, invariants, equivalent, finite_dimensional,
                        class_zero, isoclass_count)
from .errors import LieError, CapExceeded, InvariantViolation

__version__ = "0.1.0"
