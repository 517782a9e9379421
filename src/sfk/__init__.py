"""Fully-sparse FFN training reference kit.

CPU-verifiable reference implementations of a sparse transformer-FFN
training recipe: soft-thresholded 2:4 weight sparsification, routed
V:N:M activation sparsification, the squared-ReLU FFN forward/backward
with exact sparse-operand placement, FLOP/roofline arithmetic,
sparse/dense schedule math, and a desk-scale training harness.
"""

from .codec import config_from_json, config_to_json
from .counters import MultiplyCounter, count_multiplies
from .errors import (
    CorruptionError,
    DivergenceError,
    FormatError,
    GuardError,
    InputError,
    SfkError,
    ShapeError,
)
from .ffn import (
    ABLATIONS,
    DENSE_POLICY,
    FfnParams,
    FfnTape,
    GradcheckReport,
    SparsityPolicy,
    ablation_policy,
    ffn_backward,
    ffn_forward,
    gradcheck,
    init_ffn_params,
    squared_relu,
    squared_relu_backward,
)
from .matcore import as_matrix, gemm, load_matrix, rand_matrix, save_matrix
from .roofline import (
    RooflineConfig,
    conversion_overhead_model,
    end_to_end_speedup,
    ffn_fraction,
    flop_fraction_sweep,
    load_configs,
    param_count,
    sweep_csv,
    total_flops,
)
from .router import (
    ExpertBank,
    PaddedLayout,
    RouterConfig,
    RoutingPlan,
    apply_permutation,
    cluster_columns,
    expert_balance,
    invert_permutation,
    load_bank,
    moe_to_venom,
    pad_rows,
    padded_layout,
    route_tokens,
    routed_columns,
    routed_feature_mask,
    save_bank,
    unpad_rows,
)
from .schedule import (
    TrainSchedule,
    build_schedule,
    default_sparse_policy,
    schedule_speedup,
)
from .sparse24 import (
    GREEDY_MAGNITUDE,
    MODES,
    SOFT_THRESHOLD,
    Sparse24Matrix,
    decode24,
    kept_mask,
    load_s24,
    mass_kept_fraction,
    reencode24,
    save_s24,
    soft_threshold,
    soft_threshold_backward,
    sparsify24,
    sparsify24_backward,
    spmm24,
    spmm24_rhs,
    spmm24_tn,
)
from .trainkit import (
    ToyTask,
    TrainReport,
    loss_jump_quantile,
    max_loss_jump,
    run_training,
)
from .venom import (
    VenomMatrix,
    VenomParams,
    load_venom,
    save_venom,
    venom_check,
    venom_encode,
)

__version__ = "0.1.0"
