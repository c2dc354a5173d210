"""Constant-envelope and one-bit transmit beamformer design for large-scale
MIMO radar with few-bit receive ADCs.

The library maximizes the relative entropy between the target-present and
target-absent receive distributions: stage 1 allocates per-direction transmit
power on a large-array surrogate, stage 2 fits a unit-modulus (or one-bit)
beamformer to the resulting pattern, and the evaluation layer provides exact
relative-entropy computation plus Monte Carlo detection with a true few-bit
quantizer in the loop.
"""

__version__ = "0.1.0"

from .model import (ADC_DISTORTION, HypothesisCovariances, IllConditionedModelError,
                    LowRankCovariances, ModelError, QuantizationModel, Scenario,
                    UnsupportedResolutionError, averaged_relative_entropy, beampattern_powers,
                    hypothesis_covariances, is_unit_modulus, low_rank_covariances,
                    quantization_model, random_unit_modulus, relative_entropies,
                    relative_entropy, steering_matrix, unit_modulus)
from .power_alloc import (PowerAllocationResult, PowerProfile, asymptotic_objective,
                          bcd_power_allocation, power_profile, profile_objective)
from .ce_design import (CeDesignParams, DesignProblem, Iterate, MinorizerState, MmTrace,
                        beampattern_mse, design_problem, evaluate_iterate, minorizer_matrix,
                        mm_map, orthogonality_residual, penalized_objective, plain_mm,
                        squarem_accelerated_mm)
from .onebit import (DegenerateIterateError, EpmPoint, EpmTrace, LineSearchStallError,
                     OneBitParams, box_project, epm_gradient, epm_objective, epm_point,
                     nesterov_epm, round_to_signs)
from .quantizer import ScalarQuantizer, lloyd_max_codebook, quantize_received
from .simulate import (DetectionCurve, DetectionPoint, detection_curve, lfm_waveforms,
                       received_batch, simulate_detection, steering_crosscorr_experiment)
from .pipeline import (DesignReport, ExperimentSpec, load_scenario, projection_baseline,
                       run_ce_design, run_onebit_design, run_pipeline)
