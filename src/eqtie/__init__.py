"""Parameter-sharing compiler for group-equivariant neural layers.

Given a finite group and its discrete actions on the input and output index
sets, this package compiles dense and sparse weight-tying structures,
materializes tied weight matrices, verifies equivariance exactly, and
certifies *unique* equivariance by enumerating the automorphism group of the
resulting colored bipartite structure.
"""

from .autsearch import (
    AutomorphismResult,
    AutSearchError,
    Certification,
    certify_unique,
    color_refine,
    enumerate_automorphisms,
)
from .designs import (
    ChannelSpec,
    ColorMatrix,
    DesignError,
    Relation,
    SharingStructure,
    dense_design,
    expand_channels,
    merge_colors,
    replicate_action,
    sparse_design,
    with_identity_relation,
)
from .layer import (
    EquivarianceReport,
    LayerError,
    Nonlinearity,
    TiedLayer,
    check_equivariance,
    compose_layers,
    first_primes,
    forward,
    graph_conv_structure,
    group_conv,
    group_conv_structure,
    leaky,
    materialize,
    tied_layer_from_structure,
)
from .permcore import (
    ActionProfile,
    GroupAction,
    GroupError,
    JointAction,
    OrbitPartition,
    Permutation,
    PermutationGroup,
    build_action,
    classify_action,
    close_generators,
    compose,
    cyclic_generators,
    dihedral_generators,
    direct_product_generators,
    faithful_image,
    format_cycles,
    joint_action,
    named_group,
    natural_action,
    orbits,
    parse_cycles,
    regular_action,
    symmetric_generators,
    symmetrize_genset,
    trivial_action,
    wreath_generators,
)
from .specio import ProblemSpec, SpecError, parse_spec

__version__ = "0.1.0"
