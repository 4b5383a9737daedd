"""Characterize quantum channels from prepare-and-measure statistics.

Communication matrices C[j, k] = tr(rho_j M_k) are the only observable object;
this package certifies what a set-up can do (differentiate channels, full or
unital tomography), self-tests set-ups from the statistics alone, reconstructs
channels by linear inversion, and detects channel properties (unitality,
entanglement-breaking implementability) with constructive witnesses.
"""

from .analysis import (
    InfoCompletenessReport,
    RobustnessReport,
    SelfTestCertificate,
    certify_info_completeness,
    information_storability,
    numerical_rank,
    robustness_gap,
    self_test,
    span_dims,
)
from .errors import CommatError, PreconditionError, ValidationError
from .fixtures import (
    antidist_matrix,
    dist_matrix,
    eb_example,
    noisy_antidist,
    sic_qubit,
    trine_qubit,
)
from .operators import (
    BlochBasis,
    DensityOperator,
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    apply_channel,
    bloch_basis,
    bloch_from_state,
    channel_from_bloch,
    channel_from_choi,
    channel_from_kraus,
    completely_depolarizing_channel,
    depolarizing_channel,
    identity_channel,
    inball_radius,
    is_unital_map,
    measure_and_prepare_channel,
    state_from_bloch,
    state_from_matrix,
    unitary_channel,
    validate_povm,
)
from .properties import (
    EbCertificate,
    IndistinguishablePair,
    UnitalityVerdict,
    construct_indistinguishable_pair,
    detect_unitality,
    eb_certificate,
    nonnegative_factorization,
    psd_rank_lower_bound,
    unital_differentiation_condition,
)
from .scenario import (
    CommMatrix,
    Scenario,
    choi_distance,
    comm_matrix,
    comm_matrix_with_channel,
    compose_channels,
    iterate_channel,
)
from .tomography import (
    GaugeChannelEstimate,
    TomographyFrame,
    UnitalFrame,
    build_frame,
    build_unital_frame,
    reconstruct_channel,
    reconstruct_unital,
    reconstruct_up_to_gauge,
)

__version__ = "0.1.0"
