import inspect

import hroa

# The public surface, pinned: a new export or a new parameter is an edit
# to one of these tables, where review sees it.
PUBLIC_NAMES = [
    "V4",
    "V6",
    "AddressBlock",
    "BitmapRoa",
    "CacheSnapshot",
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

# Parameter names of each public callable, and of each public method of a
# public class ("Class.method", without self).  Exceptions take a message.
SIGNATURES = {
    "AddressBlock": ("prefix", "max_length"),
    "BitmapRoa": ("asn", "blocks"),
    "CacheSnapshot": ("session_id", "serial", "blocks", "cfg"),
    "CacheSnapshot.build": ("inputs", "cfg", "session_id", "serial", "recompress"),
    "CacheSnapshot.authorized_map": (),
    "HangingLevels": ("family", "levels"),
    "HangingLevels.default": ("family",),
    "HangingLevels.multiples_of": ("step", "family"),
    "HangingLevels.explicit": ("family", "levels"),
    "HybridConfig": ("delta_l_threshold", "hanging"),
    "Prefix": ("family", "bits", "prefixlen"),
    "RtrServer": ("snapshot", "scheme", "host", "port", "bandwidth_bps"),
    "RtrServer.close": (),
    "Stm": ("asn", "flag", "table"),
    "SubTreeBlock": ("family", "id", "bitmap"),
    "SyncReport": (
        "pdu_count", "total_bytes", "elapsed", "decode_count", "serial", "session_id",
        "skipped_unknown",
    ),
    "SyncReport.to_json": (),
    "Workload": ("entries",),
    "Workload.add": ("asn", "block"),
    "Workload.asns": (),
    "Workload.vrp_count": (),
    "Workload.prefixes_for": ("asn",),
    "Workload.without_as0": (),
    "apply_roa": ("cache", "roa"),
    "compress_minimal": ("prefixes",),
    "decode_block": ("cfg", "block"),
    "encode_batch": ("cfg", "prefixes", "withdraw"),
    "expand": ("block",),
    "fetch": ("endpoint", "cfg", "timeout"),
    "hybrid_encode": ("cfg", "blocks"),
    "load_csv": ("path_or_file",),
    "make_node_number": ("prefix", "level"),
    "make_subtree_id": ("prefix", "level"),
    "optimize_levels": ("workload", "h_max", "width"),
    "parse_prefix": ("text", "strict"),
    "scatter_degree": ("prefixes",),
    "stm_decode": ("stm", "cfg"),
    "sweep_parameters": ("inputs", "thresholds", "level_multiples", "aggregate"),
    "synthetic_scattered": ("vrp_count", "seed"),
}


def _params(fn) -> tuple[str, ...]:
    return tuple(name for name in inspect.signature(fn).parameters if name != "self")


def test_every_public_name_resolves():
    assert [name for name in hroa.__all__ if not hasattr(hroa, name)] == []
    scope: dict = {}
    exec("from hroa import *", scope)
    assert set(hroa.__all__) <= set(scope)


def test_public_names_are_pinned():
    assert hroa.__all__ == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    got = {}
    for name in hroa.__all__:
        obj = getattr(hroa, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        got[name] = _params(obj)
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(member) or isinstance(member, classmethod)
                ):
                    got[f"{name}.{attr}"] = _params(getattr(obj, attr))
    assert got == SIGNATURES
