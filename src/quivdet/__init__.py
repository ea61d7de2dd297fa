"""Exact computation of minimal right determiners of morphisms between
finitely presented representations of finite acyclic quivers, together with a
functorial brute-force verification oracle."""

from .errors import (
    DecompositionInconclusiveError,
    FieldTooSmallError,
    HasInjectiveSummandError,
    HasProjectiveSummandError,
    InvariantError,
    NotIndecomposableError,
    ParseError,
    QuivdetError,
    SemanticError,
)
from .linalg import (
    Mat,
    PrimeField,
    RATIONALS,
    RationalField,
    Subspace,
    field_from_name,
    kernel_basis,
    rref,
    solve,
)
from .quiver import (
    Path,
    Quiver,
    injective_at,
    parse_quiver,
    paths_between,
    projective_at,
    simple_at,
)
from .reps import (
    HomSpace,
    RepMorphism,
    Representation,
    cokernel,
    direct_sum,
    dual_morphism,
    dual_representation,
    hom_basis,
    identity_morphism,
    image,
    kernel,
    zero_morphism,
    zero_representation,
)
from .decompose import (
    DecompositionResult,
    decompose,
    intrinsic_kernel,
    is_indecomposable,
    is_isomorphic,
    iso_witness,
    minimal_polynomial,
    rad_hom_basis,
    right_minimal_version,
)
from .structure import (
    injective_hull,
    min_injective_copresentation,
    projective_cover,
    radical,
    socle,
    socle_multiplicities,
    top,
    top_multiplicities,
)
from .translate import (
    IndecRegistry,
    cartan_matrix,
    classify_underlying_graph,
    coxeter_inverse,
    dtr,
    euler_form,
    inverse_nakayama_on_injmap,
    knit,
    positive_root_count,
    trd,
)
from .determiner import (
    DeterminerEngine,
    DeterminerMember,
    DeterminerReport,
    OracleVerdict,
    minimal_left_determiner,
    minimal_right_determiner,
)

__version__ = "0.1.0"
