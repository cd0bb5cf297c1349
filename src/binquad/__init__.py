"""Exact arithmetic for binary quadratic forms and their Clifford data:
even Clifford algebras, form/pair correspondence, duality,
ideal lattices with universal norm forms, Gauss composition, and
class-group verification over Z, Z/n, and Q.
"""

from .clifford import (
    AlgebraWitness,
    QuadraticAlgebra,
    algebra_isomorphic,
    automorphisms,
    even_clifford,
    m_left,
    m_right,
    quat_conj,
    quat_mul,
    quat_norm,
    quat_trace,
)
from .compose import (
    compose,
    dirichlet_compose,
    identity_form,
    inverse_form,
    proper_reduce,
)
from .form import (
    BinaryQuadraticForm,
    SimilarityVerdict,
    SimilarityWitness,
    bqf,
    properly_equivalent,
    reduce_definite,
    similar,
)
from .norm import (
    IdealLattice,
    base_change_checks,
    even_clifford_of_ideal,
    form_to_ideal,
    ideal_conjugate,
    ideal_is_invertible,
    ideal_is_principal,
    ideal_multiply,
    naive_norm_form,
    universal_norm_form,
)
from .pairs import (
    CliffordPair,
    PairVerdict,
    PairWitness,
    clifford_form_to_wood_form,
    dual_conic,
    dual_form,
    dual_form_trace,
    form_to_pair,
    normalize_pair,
    pair_to_form,
    pairs_isomorphic,
    wood_pair,
)
from .picard import (
    ClassGroup,
    class_group,
    class_number,
    ideal_class_representatives,
    pic_counts,
    reduced_forms,
)
from .ring import (
    IntegerRing,
    ModularRing,
    QQ,
    RationalRing,
    Ring,
    RingHom,
    ZZ,
    content,
    ring_from_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
