"""Zigzag persistence for non-repetitive filtrations via standard persistence."""

from .barcode import (
    ABSOLUTE,
    CLOSED,
    OPEN,
    RELATIVE,
    Barcode,
    BarcodeDiff,
    Interval,
    classify_ends,
    multiset_equal,
)
from .complexes import (
    ComponentLabels,
    DualGraph,
    Simplex,
    SimplicialComplex,
    boundary,
    cone,
    connected_components,
    dual_graph,
)
from .duality import absolute_to_relative, recover_absolute_from_relative
from .errors import (
    ContextMismatchError,
    ContractViolationError,
    InternalInconsistencyError,
    InvalidConeError,
    InvalidDiamondError,
    InvalidInputError,
    InvalidSwitchError,
    NotAManifoldError,
    NotNonRepetitiveError,
    NotStandardizedError,
    NotUpDownError,
    ZigzagError,
)
from .filtration import (
    ADD,
    DEL,
    EventIndexMap,
    FiltrationEvent,
    StandardizationRecord,
    Violation,
    ZigzagFiltration,
    find_repetition,
    inward_switch,
    is_non_repetitive,
    outward_switch,
    random_outward_walk,
    standardize,
    to_updown,
    validate,
)
from .manifold import (
    GraphZigzag,
    dual_filtration,
    manifold_absolute_barcode,
    relative_top_barcode,
    zero_dim_zigzag,
)
from .pipeline import (
    PipelineResult,
    check_diamond,
    compute_zigzag,
    ext_to_updown,
    extended_barcode,
    updown_to_f,
    zigzag_barcode,
)
from .reduction import (
    EXT,
    ORD,
    REL,
    ExtendedBarcode,
    ExtendedFiltration,
    ExtendedInterval,
    ReductionState,
    build_extended,
    reduce,
    reduce_twist,
)
from .rng import SplitMix64

__version__ = "0.1.0"

# the brute-force reference, loaded on first use (PEP 562): no solve path calls it
_ORACLE_NAMES = frozenset((
    "HomologyBasis", "InducedMatrix", "LinearSpaceChain", "homology_basis", "induced_map",
    "oracle_absolute", "oracle_extended", "oracle_relative", "relative_homology_basis",
    "sequence_barcode", "zigzag_decompose",
))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
