"""Event-driven simulator and exact-oracle toolkit for threshold voter
models on d-dimensional tori."""

from .torus import TorusShape, encode, decode, neighbors, shared_neighbors, two_hop_set
from .spin import (Configuration, FlipEvent, RngStream, Trajectory,
                   sample_product, threshold_rate, run, verify_counts, THRESHOLD, DEATH)
from .observables import ObservableSeries, fluid, fluid_in_scope, fraction_series, sup_deviation
from .coupling import coupled_run_eta_zeta, coupled_run_monotone, DominationError
from .oracle import (binom_tail, ldp_constants, expected_C0,
                     expected_suffix_count, exact_var_C0, ctmc_mean_ones,
                     death_law, ldp_convergence, vertex_tail, neighbor_tail,
                     CapacityError)
from .harness import ExperimentSpec, run_experiment

__version__ = "0.1.0"
