"""Cooperative passive beamforming for double-IRS assisted MIMO uplink."""

from .channels import (
    ChannelSet,
    LinkModel,
    ReflectPattern,
    SystemScenario,
    array_response,
    build_double_irs_scenario,
    build_single_irs_baseline_A1,
    build_single_irs_baseline_A2,
    db_to_linear,
    dbm_to_watt,
    geometric_link,
    path_loss_linear,
    rician_link,
)
from .metrics import (
    RankDeficiencyError,
    RankReport,
    SinrContext,
    effective_channel,
    max_min_rate,
    numerical_rank,
    rank_gain_report,
    sinr_per_user,
)
from .multi_user import (
    MuSolveState,
    algorithm1,
    build_p31_instance,
    build_p34_instance,
    dft_codebook,
    dft_codebook_search,
    mmse_receivers,
    mrc_receivers,
    zf_receivers,
)
from .reports import SolveReport
from .sdp import (
    BisectionResult,
    MaxMinSdpInstance,
    PsdSolution,
    bisection_maxmin,
    feasibility_check,
    gaussian_randomization,
    matched_filter_bound,
)
from .single_user import (
    SuSolveState,
    ao_single_user,
    init_from_single_irs,
    opt_theta_closed_form,
    single_irs_opt,
    snr_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
