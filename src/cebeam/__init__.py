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
                    ModelError, QuantizationModel, Scenario, UnsupportedResolutionError,
                    averaged_relative_entropy, beampattern_power, beampattern_powers,
                    hypothesis_covariances, is_unit_modulus, model_row_power,
                    quantization_model, random_unit_modulus, relative_entropy,
                    steering_matrix, steering_vector, unit_modulus)
from .power_alloc import (PowerAllocationResult, PowerProfile, asymptotic_objective,
                          bcd_power_allocation, profile_objective)
from .ce_design import (CeDesignParams, MinorizerState, MmTrace, beampattern_mse,
                        minorizer_matrix, mm_map, orthogonality_residual,
                        penalized_objective, plain_mm, squarem_accelerated_mm)
from .onebit import (DegenerateIterateError, EpmTrace, LineSearchStallError, OneBitParams,
                     box_project, epm_gradient, epm_objective, exhaustive_onebit,
                     nesterov_epm, round_to_signs, v_update)
from .quantizer import ScalarQuantizer, lloyd_max_codebook, quantize_received
from .simulate import (DetectionCurve, DetectionPoint, detection_curve, lfm_waveforms,
                       received_batch, sample_h0_covariance_error, simulate_detection,
                       steering_crosscorr_experiment)
from .pipeline import (DesignReport, ExperimentSpec, load_scenario, projection_baseline,
                       run_ce_design, run_onebit_design, run_pipeline, run_power_allocation)
