"""Route-origin authorization encoding toolkit.

Layers, bottom up: prefix trie primitives, the minimal maxLength
compressor, the bitmap sub-tree codec, the hybrid split of each AS's
canonical blocks, a hanging-level optimizer, the wire format, and the
sync layer: the PDU framing of every scheme, the one payload decoder, the
parameter sweep and a reset-query server and client.
"""

from .prefix import (
    V4,
    V6,
    AddressBlock,
    ExpansionCapError,
    FamilyMismatchError,
    Prefix,
    PrefixFormatError,
    Vrp,
    expand,
    parse_prefix,
)
from .mlcodec import compress_minimal, scatter_degree
from .bmcodec import (
    BitmapRoa,
    HangingLevels,
    Stm,
    SubTreeBlock,
    apply_roa,
    decode_block,
    encode_batch,
    make_node_number,
    make_subtree_id,
    stm_decode,
)
from .hybrid import HybridConfig, hybrid_encode
from .levelopt import CostModel, optimize_levels
from .sync import CacheSnapshot, RtrServer, SyncReport, fetch, sweep_parameters
from .workload import Workload, load_csv, synthetic_scattered

__version__ = "0.1.0"

__all__ = [
    "V4",
    "V6",
    "AddressBlock",
    "BitmapRoa",
    "CacheSnapshot",
    "CostModel",
    "ExpansionCapError",
    "FamilyMismatchError",
    "HangingLevels",
    "HybridConfig",
    "Prefix",
    "PrefixFormatError",
    "RtrServer",
    "Stm",
    "SubTreeBlock",
    "SyncReport",
    "Vrp",
    "Workload",
    "apply_roa",
    "compress_minimal",
    "decode_block",
    "encode_batch",
    "expand",
    "fetch",
    "hybrid_encode",
    "load_csv",
    "make_node_number",
    "make_subtree_id",
    "optimize_levels",
    "parse_prefix",
    "scatter_degree",
    "stm_decode",
    "sweep_parameters",
    "synthetic_scattered",
]
