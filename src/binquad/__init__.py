"""Exact arithmetic for binary quadratic forms and their Clifford data:
even Clifford algebras, form/pair correspondence, duality,
ideal lattices with universal norm forms, Gauss composition, and
class-group verification over Z, Z/n, and Q.

Every layer loads when one of its names is first read (PEP 562), so
that a process imports only the layers it reaches: `import binquad`
loads none, and deciding similarity loads no ideal lattice, composition
or class group code.
"""

import sys
from importlib import import_module
from types import ModuleType

# each layer and the public names it defines
_LAYERS = {
    "clifford": "AlgebraWitness QuadraticAlgebra algebra_isomorphic automorphisms even_clifford identity_form m_left "
                "m_right quat_conj quat_mul quat_norm quat_trace",
    "compose": "compose dirichlet_compose inverse_form proper_reduce",
    "form": "BinaryQuadraticForm SimilarityVerdict SimilarityWitness bqf properly_equivalent reduce_definite similar",
    "norm": "IdealLattice base_change_checks even_clifford_of_ideal form_to_ideal ideal_conjugate ideal_is_invertible "
            "ideal_is_principal ideal_multiply naive_norm_form universal_norm_form",
    "pairs": "CliffordPair PairVerdict PairWitness clifford_form_to_wood_form dual_conic dual_form dual_form_trace "
             "form_to_pair normalize_pair pair_to_form pairs_isomorphic wood_pair",
    "picard": "ClassGroup class_group class_number ideal_class_representatives pic_counts reduced_forms",
    "ring": "IntegerRing ModularRing QQ RationalRing Ring RingHom ZZ content ring_from_json",
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
# the submodules that `from binquad import *` binds
_SUBMODULES = ("clifford", "errors", "form", "integral", "mat2", "modular", "norm", "pairs", "picard", "ring")

__all__ = sorted({*_EXPORTS, *_SUBMODULES})


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule on its package once it
        # loads; binquad.compose stays the function whichever module
        # imports binquad.compose first.
        if name == "compose" and isinstance(value, ModuleType):
            value = value.compose
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
