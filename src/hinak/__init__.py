"""Higher Nakayama algebras: presentations, cluster-tilting modules, exact verification."""

from .algebras import (
    AlgebraSpec,
    BasisElt,
    PresentedAlgebra,
    build,
    export_dot,
    export_json,
    export_qpa,
    mesh_presentation,
)
from .combinat import (
    KupischSeries,
    canonical_orbit_rep,
    interlaces,
    kupisch_hasse_path,
    loewy_len,
    mesh_coordinates,
    nakayama_permutation,
    translate_tuple,
)
from .checks import (
    CheckReport,
    check_cluster_tilting,
    check_endo_tower,
    check_gldim,
    check_hom_ext_formulas,
    check_homological_embedding,
    check_kupisch_lengths,
    check_mesh_iso,
    check_orbit_periodicity,
    check_proj_inj,
    check_resolutions,
    check_selfinjective,
    check_tau_translate,
    run_all,
    run_suite,
)
from .linalg import Mat
from .reps import (
    MatrixModule,
    domdim,
    dualize,
    endo_algebra,
    ext_dim,
    gldim,
    hom_space,
    injective_envelope,
    injective_module,
    interval_module,
    loewy_length_module,
    min_inj_coresolution,
    min_proj_resolution,
    modules_isomorphic,
    projective_cover,
    projective_module,
    simple_module,
    socle_module,
    syzygy_module,
    tau_d,
    tau_d_inverse,
    zero_module,
)

__version__ = "0.1.0"
