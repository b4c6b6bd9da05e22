"""The public surface of the package: the names ``from nemprism import *`` binds."""
import nemprism
from nemprism import conformal, energy, errors, geometry, invariants, numerics, sweep

PUBLIC_NAMES = {
    "AccuracyError", "ConfigFamily", "DimensionOrderError", "DirectorSample",
    "DomainError", "ElasticConstants", "EnergyReport", "Face",
    "HomogeneousValue", "InfeasibleError", "InvalidDimensionError",
    "InvalidSpecError", "LowerBoundCertificate", "MinimizeResult",
    "NormalizationError", "Octant", "PathResolutionError", "Prism",
    "PrismVertex", "QuadratureResult", "RationalMapSpec", "SumRuleError",
    "SweepRow", "TopologicalInvariants", "UNWRAPPED_VARIANTS",
    "UnboundedError", "UndefinedAtVertexError", "UnknownFamilyError",
    "area_density", "appell_f2_restricted", "bound_ratio", "builtin_family",
    "conformal_energies", "conformal_energy", "director", "director_sample",
    "edge_length", "edge_orientations", "energy_report", "eval_f",
    "face_flux", "flux_field", "invariants_of", "invariants_report",
    "kink_numbers", "lower_bound_lp", "lower_bound_prism", "lp_solve",
    "make_prism", "minimize_1d", "minimize_family", "numeric_kink_x",
    "numeric_kink_y", "numeric_kink_z", "numeric_trapped_area", "omega_min",
    "prism_lp_certificate", "quad2d", "quad2d_many", "scaled_energy",
    "sphere_density", "stereo_lift", "stereo_project", "sweep_energy",
    "trapped_area", "unwrapped_energy", "upper_bound_prism",
    "vertex_trapped_areas",
}


def test_star_import_binds_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 68
    namespace = {}
    exec("from nemprism import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES | {"__version__"}


def test_all_is_the_public_names_and_version_without_duplicates():
    assert len(nemprism.__all__) == len(set(nemprism.__all__))
    assert set(nemprism.__all__) == PUBLIC_NAMES | {"__version__"}


def test_every_module_export_resolves_on_the_package():
    for module in (conformal, energy, errors, geometry, invariants, numerics, sweep):
        for name in module.__all__:
            assert getattr(nemprism, name) is getattr(module, name), (module.__name__, name)
