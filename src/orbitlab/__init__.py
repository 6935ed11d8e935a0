"""orbitlab: finite combinatorics of injection categories, permutation
actions, amalgamation, orbit categories, and equivariant module experiments."""

from .errors import (
    FalsificationError,
    MalformedInputError,
    OrbitlabError,
    ResourceCapError,
)
from .categories import (
    CategoryKind,
    InjectionMorphism,
    compose,
    factorize,
    format_morphism,
    hom_set,
    hom_size_formula,
    is_morphism,
    parse_morphism,
)
from .actions import (
    FiniteAction,
    FullnessWitness,
    GrowthProfile,
    LemmaReport,
    growth_profile,
    is_t_dense,
    lemma_equivalence_check,
    orbit_count,
    parse_group_file,
    perm_from_cycles,
    restriction_fullness_witness,
    stirling2,
    symmetric_action,
    trivial_action,
)
from .structures import (
    AmalgamationProblem,
    BuiltinAge,
    FiniteStructure,
    PairAge,
    SapReport,
    StructureEmbedding,
    age_for,
    age_has_sap,
    arrangement_structure,
    enumerate_embeddings,
    format_structure,
    make_structure,
    parse_embedding_file,
    parse_structure,
    solve_amalgamation,
)
from .orbitcat import (
    PhiIsoReport,
    phi_iso_report,
)
from .polynomials import (
    GREVLEX,
    LEX,
    CoefficientField,
    MonomialOrder,
    QQ,
    parse_polynomial,
)
from .modlab import (
    ChainReport,
    GroebnerBasis,
    ModuleVector,
    apply_morphism,
    chain_experiment,
    groebner_basis,
    parse_chain_file,
    parse_element_line,
    restriction_decomposition_check,
    width_component,
)

__version__ = "0.1.0"
