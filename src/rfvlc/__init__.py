"""Monte Carlo simulator for hybrid RF-VLC vehicle-to-infrastructure uplinks."""

from .engine import MetricEstimate, SweepRow, SweepSpec, derive_seed, run_sweep
from .errors import ConfigError, InvalidArgumentError, UnsupportedModelError
from .metrics import (MODE_LA, MODE_NON_LA, MODE_PURE_RF, MODE_PURE_VLC,
                      MODES, db_to_linear, minimum_transmission_time, mode_rates,
                      mode_success, outage_rate, prp_rf_closed_form,
                      simulate_trials, sinr, vlc_cutoff_distance, vlc_snr)
from .rf_channel import (FADING_NAKAGAMI, FADING_RAYLEIGH, RfParams,
                         rf_mean_rx_power, rf_noise_power, sample_fading)
from .scenario import (WEATHER_ATTENUATION_DB_PER_KM, WEATHER_KINDS, Deployment,
                       LaneGeometry, Pose3, ScenarioConfig, attenuation_factor,
                       draw_deployment, validate)
from .vlc_channel import (VlcParams, lambertian_order, vlc_noise_power,
                          vlc_rx_electrical_power)

__version__ = "0.5.1"
