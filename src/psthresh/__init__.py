"""Fault-tolerance thresholds for teleportation-based error correction
under heavy post-selection.

The package computes hashing-bound thresholds for noisy CNOT gates,
iterates the single-pair post-selection map to its fixed point, runs the
[[7,1,3]] syndrome-class recursion (exactly and by Monte Carlo population
dynamics), and evaluates the [[23,1,7]] entropy and crash-probability
machinery built on the Golay code's coset weight enumerators.
"""

from .codes import (
    CLASS_SIZES_713,
    combine_classes,
    coset_class_713,
    crash_poly_2317,
    crash_poly_713,
    degeneracy_correction,
    distance_classes_from_x,
    distance_table_713,
    postselect_classes,
)
from .noise import (
    Forward,
    SOLVER_FAMILIES,
    model_family,
)
from .pauli import (
    channel_to_dist,
    commutation_signs,
    dist_to_channel,
)
from .postselect import (
    indep_fixed_point,
    model_fixed_point,
    model_teleport_output,
)
from .threshold import (
    BracketError,
    McConfig,
    capacity_one_type,
    capacity_three_type,
    concat_threshold_mc,
    crash_difference_threshold,
    fixed_fidelity_point,
    forward_combined_diagonal,
    hashing_threshold,
    mc_threshold_error_bar,
    mc_verdict,
    mc_verdict_at,
    model_level0,
    one_type_dist,
    overhead_success,
    sweep_r,
    teleport_entropy,
    three_type_dist,
)

__all__ = [
    "BracketError",
    "CLASS_SIZES_713",
    "Forward",
    "McConfig",
    "SOLVER_FAMILIES",
    "capacity_one_type",
    "capacity_three_type",
    "channel_to_dist",
    "combine_classes",
    "commutation_signs",
    "concat_threshold_mc",
    "coset_class_713",
    "crash_difference_threshold",
    "crash_poly_2317",
    "crash_poly_713",
    "degeneracy_correction",
    "dist_to_channel",
    "distance_classes_from_x",
    "distance_table_713",
    "fixed_fidelity_point",
    "forward_combined_diagonal",
    "hashing_threshold",
    "indep_fixed_point",
    "mc_threshold_error_bar",
    "mc_verdict",
    "mc_verdict_at",
    "model_family",
    "model_fixed_point",
    "model_level0",
    "model_teleport_output",
    "one_type_dist",
    "overhead_success",
    "postselect_classes",
    "sweep_r",
    "teleport_entropy",
    "three_type_dist",
]

__version__ = "0.1.0"
