"""Simulation and reconstruction toolkit for 3D photoacoustic computed tomography."""

__version__ = "0.1.0"

from .forward import (
    AcousticMedium,
    PhysicsMask,
    ReceiveChain,
    Spectra,
    add_noise,
    adjoint_operator,
    default_receive_chain,
    forward_operator,
    physics_residual,
    sample_physics_mask,
    to_time_domain,
)
from .geometry import (
    SamplingPattern,
    SensorArray,
    apply_sampling_pattern,
    build_hemisphere_grid,
    quadrature_weights,
)
from .metrics import MetricReport, compare_volumes, cosine_similarity, nmse, psnr
from .phantom import VesselTree, grow_vessel_tree, make_initial_pressure
from .recon_iter import IterConfig, estimate_op_norm, fista_reconstruct, tv_huber
from .recon_ubp import UbpConfig, ubp_filter, ubp_reconstruct
from .volume import GridSpec, Volume, load_volume, save_volume
