"""liftsim: a desk-scale harness for randomized query-to-communication lifting.

Build composed two-party functions from an index gadget, transform protocols
into their density-restoring refined form, run the randomized decision-tree
simulator against exact brute-force transcript distributions, and verify the
partition / structure / uniformity invariants in exact rational arithmetic.
"""

from .analysis import (
    GadgetMatrix,
    MarginalsReport,
    NormBound,
    dt_error,
    fourier_pointwise_check,
    marginals_report,
    norm_bound_check,
    parity_bias,
    support_check,
    true_transcript_dist,
    tv_distance,
)
from .core import (
    BOT,
    BobCube,
    ComposedInstance,
    ExplicitBobSet,
    OuterFunction,
    PartialAssignment,
    Rect,
    compose_eval,
    gadget,
    is_structured,
    iter_slice,
    slice_count,
)
from .entropy import (
    DensityPart,
    SetVar,
    deficiency,
    density_restoring_partition,
    is_blockwise_dense,
    log2_float,
    verify_partition_lemma,
)
from .errors import DomainError, ResourceError
from .protocol import (
    BitFn,
    DecisionTree,
    DLeaf,
    DQuery,
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedDecisionTree,
    RandomizedProtocol,
    RefinedProtocol,
    TableFn,
    dt_eval,
    dt_to_protocol,
    leaf_rectangles,
    load_fixture,
    project_transcript,
    refine,
    run_protocol,
    run_refined,
)
from .simulate import (
    ExactDist,
    SimConfig,
    ledger_check,
    ledger_exact,
    protocol_to_dt,
    simulate_exact,
    simulate_sample,
    simulate_samples,
    walk_law,
)

__version__ = "0.1.0"
