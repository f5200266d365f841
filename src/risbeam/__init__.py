"""Flat-top reflected-beam synthesis and rate analysis for surface-assisted
wideband mmWave MIMO-OFDM.

A passive phase-shifting surface with M unit-modulus coefficients reflects a
multipath feed towards the users. The package synthesizes the surface phases
and the transmit precoder so the average reflected power pattern matches a
flat-top target (constant gain over a chosen sector), using alternating
conjugate-gradient solvers with the unit-modulus constraint handled as a
Riemannian manifold, and evaluates the resulting broadcast / OFDMA downlink
rates against their closed-form predictions.
"""

from .channel import (ArrayGeometry, ChannelConfig, ChannelStats, PathSet,
                      assemble_channel, channel_stats, freq_gain,
                      path_loss_linear, sample_paths, steering_matrix)
from .pattern import (AngularGrid, TargetPattern, WeightConfig,
                      compute_weights, grid_steering_rows, normalized_pattern,
                      pattern_cost, region_masks, target_value)
from .manifold import (ArmijoParams, ArmijoResult, CgResult, LineSearchError,
                       RetractionError, armijo_search, euclidean_cg_minimize,
                       is_unit_modulus, project_tangent, random_unit_modulus,
                       real_inner, retract, rcg_minimize)
from .synthesis import (CoverageRegion, SynthesisResult, flat_top_ripple_db,
                        measure_minus3db_region, optimize_precoder,
                        phase_gradient, precoder_gradient,
                        predict_shifted_region, synthesize)
from .analysis import (CoverageStats, LinkBudget, analytic_ofdma_rate,
                       avg_received_power, dbm_to_watts,
                       default_flat_power, equivalent_channel,
                       idealized_ofdma_channel_gains, idealized_received_power_mc,
                       precoded_channels, rate_scale, subcarrier_rates)
from .scenario import ScenarioConfig
from .validation import (full_matrix_phase_gradient, gradient_check,
                         relative_error, wirtinger_finite_difference)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
