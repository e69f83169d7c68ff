"""Multiset-based similarity correlation for 1-D signals.

Real-valued Jaccard, interiority, and coincidence indices; sliding-window
correlation profiles built on them; a template-matching benchmark under
uniform noise; and a small PCA for the resulting merit figures.
"""

from .correlate import BOUNDARIES, CorrelationResult, canonical_method, method_profile
from .generators import (DEFAULT_GRID, DEFAULT_TEMPLATE_AMPLITUDE,
                         DEFAULT_TEMPLATE_WIDTH, N_NOISE_LEVELS, NoiseSpec,
                         ObjectSpec, TemplateSpec, add_noise, gen_object,
                         gen_template, noise_rng)
from .indices import (abs_union_max, coincidence_addition, coincidence_real,
                      inner_product, interiority_real, jaccard_addition,
                      jaccard_real, multiset_jaccard, s_minus, s_plus, s_pm,
                      set_jaccard, signed_min_intersection)
from .kernels import ACTIVE_BACKEND
from .metrics import (INDEX_NAMES, PerformanceIndices, compute_indices,
                      overlap_integral)
from .pca import (AnalysisError, FeatureMatrix, PcaModel,
                  feature_matrix_from_records, group_centroids, group_dispersion,
                  jacobi_eigh, load_feature_matrix, pca_fit, project)
from .peaks import PeakMeasurement, detect_peaks, width_at_fraction
from .signal import AlignmentError, DomainError, Multiset, Signal
from .sweep import (DEFAULT_METHODS, Aggregate, SweepConfig, SweepRecord,
                    SweepResult, run_sweep, write_aggregates_csv, write_records_csv)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_BACKEND", "AlignmentError", "AnalysisError", "Aggregate",
    "BOUNDARIES", "CorrelationResult", "DEFAULT_GRID", "DEFAULT_METHODS",
    "DEFAULT_TEMPLATE_AMPLITUDE", "DEFAULT_TEMPLATE_WIDTH", "DomainError",
    "FeatureMatrix", "INDEX_NAMES", "Multiset",
    "N_NOISE_LEVELS", "NoiseSpec", "ObjectSpec", "PcaModel",
    "PeakMeasurement", "PerformanceIndices", "Signal", "SweepConfig",
    "SweepRecord", "SweepResult", "TemplateSpec",
    "abs_union_max", "add_noise", "canonical_method", "coincidence_addition",
    "coincidence_real", "compute_indices", "detect_peaks", "feature_matrix_from_records",
    "gen_object", "gen_template", "group_centroids", "group_dispersion", "inner_product",
    "interiority_real", "jaccard_addition", "jaccard_real", "jacobi_eigh",
    "load_feature_matrix", "method_profile", "multiset_jaccard", "noise_rng",
    "overlap_integral", "pca_fit", "project", "run_sweep", "s_minus", "s_plus",
    "s_pm", "set_jaccard", "signed_min_intersection", "width_at_fraction",
    "write_aggregates_csv", "write_records_csv",
]
