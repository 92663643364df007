"""Command-line front end.

Exit codes: 0 success, 1 usage or configuration, 2 unreadable or invalid
input data, 3 transport or protocol failure during sync.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

from . import sync, wire
from .bmcodec import HangingLevels
from .hybrid import DEFAULT_HEIGHT_THRESHOLD, HybridConfig, check_wire_fit, expand_all
from .levelopt import optimize_levels
from .mlcodec import scatter_degree
from .prefix import V4, V6, WIDTH, AddressBlock, ExpansionCapError, PrefixFormatError
from .workload import Workload, dump_csv, load_csv

_FAMILY_NAMES = {"v4": V4, "v6": V6}
# schemes that ship minimal blocks, so their snapshots are always recompressed
_MINIMAL_SCHEMES = ("mroa", "sroa")


def _err(msg: str) -> None:
    print(f"hroa: {msg}", file=sys.stderr)


def _write(args, text: str) -> None:
    """Write the command's output to --out, or to stdout without it."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_profile(path: str) -> tuple[int, HangingLevels]:
    """A profile JSON file, as optimize-levels writes it: its family and levels."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if not (isinstance(doc, dict) and doc.get("family") in ("v4", "v6")
                    and isinstance(doc.get("levels"), list)):
                raise ValueError('not a profile {"family": "v4"|"v6", "levels": [...]}')
            family = _FAMILY_NAMES[doc["family"]]
            return family, HangingLevels.explicit(family, doc["levels"])
        except ValueError as exc:
            raise ValueError(f"--levels {path}: {exc}") from None


def _parse_levels_arg(values: list[str] | None) -> dict[int, HangingLevels]:
    """--levels accepts N,N,... inline or a profile JSON path, repeatable."""
    hanging = dict(HybridConfig().hanging)  # the default profiles
    for value in values or []:
        if os.path.exists(value):
            family, hanging[family] = _read_profile(value)
            continue
        try:
            levels = [int(x) for x in value.split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"--levels {value!r}: not a list or profile file") from None
        if not levels:
            raise ValueError(f"--levels {value!r}: empty")
        for family in (V4, V6):
            fit = [x for x in levels if x < WIDTH[family]]
            hanging[family] = HangingLevels.explicit(family, fit)
    return hanging


def _build_profile(args) -> dict[int, HangingLevels]:
    """The hanging-level profile that --levels or --level-multiple selects."""
    if args.level_multiple is not None:
        if args.levels:
            raise ValueError("--levels and --level-multiple are mutually exclusive")
        hanging = {fam: HangingLevels.multiples_of(args.level_multiple, fam) for fam in (V4, V6)}
    else:
        hanging = _parse_levels_arg(args.levels)
    check_wire_fit(hanging)
    return hanging


def _delta_l(text: str) -> float:
    """The --delta-l threshold: an integer or inf, in the range HybridConfig accepts."""
    threshold = math.inf if text == "inf" else float(text)
    if threshold != math.inf and not threshold.is_integer():
        raise ValueError("--delta-l must be an integer or inf")
    return HybridConfig(delta_l_threshold=threshold).delta_l_threshold


def _build_config(args) -> HybridConfig:
    """The profile plus the --delta-l split, for the commands that encode."""
    hanging = _build_profile(args)
    return HybridConfig(delta_l_threshold=_delta_l(args.delta_l), hanging=hanging)


def _snapshot(args, workload: Workload, cfg: HybridConfig) -> sync.CacheSnapshot:
    return sync.CacheSnapshot.build(
        workload,
        cfg,
        session_id=getattr(args, "session_id", None),
        serial=getattr(args, "serial", 1),
        recompress=args.recompress or args.scheme in _MINIMAL_SCHEMES,
    )


def cmd_encode(args) -> int:
    workload = load_csv(args.csv)
    cfg = _build_config(args)
    snapshot = _snapshot(args, workload, cfg)
    pdus = sync.payload_pdus(snapshot, args.scheme)
    per_as: dict[int, dict[str, int]] = {}
    per_family = {"v4": {"pdu_count": 0, "bytes": 0}, "v6": {"pdu_count": 0, "bytes": 0}}
    raws = wire.serialize_each(pdus)
    for pdu, raw in zip(pdus, raws):
        family = pdu.prefix.family if isinstance(pdu, wire.PrefixPdu) else pdu.family
        for slot in (per_as.setdefault(pdu.asn, {"pdu_count": 0, "bytes": 0}),
                     per_family["v4" if family == V4 else "v6"]):
            slot["pdu_count"] += 1
            slot["bytes"] += len(raw)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(b"".join(raws))
    print(
        json.dumps(
            {
                "scheme": args.scheme,
                "pdu_count": len(pdus),
                "total_bytes": sum(map(len, raws)),
                "per_family": per_family,
                "per_as": {str(a): per_as[a] for a in sorted(per_as)},
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_decode(args) -> int:
    cfg = HybridConfig(hanging=_build_profile(args))
    with open(args.pdufile, "rb") as fh:
        data = fh.read()
    reader = wire.PduReader()
    pdus = reader.feed(data)
    if reader.pending:
        raise wire.FramingError(f"{reader.pending} trailing bytes are not a whole PDU")
    rows: set[tuple[int, AddressBlock]] = set()
    for pdu in pdus:
        if not isinstance(pdu, sync._PAYLOAD_TYPES):
            continue  # framing PDUs of a captured response carry no rows
        asn, blocks, prefixes = sync.decode_payload_pdu(pdu, cfg)
        rows.update((asn, b) for b in blocks)
        rows.update((asn, AddressBlock(p, p.prefixlen)) for p in prefixes)
    _write(args, dump_csv(sorted(rows)))
    return 0


def cmd_stats(args) -> int:
    workload = load_csv(args.csv)
    hist: dict[str, dict[int, int]] = {"v4": {}, "v6": {}}
    for blocks in workload.entries.values():
        for block in blocks:
            counts = hist["v4" if block.prefix.family == V4 else "v6"]
            counts[block.height] = counts.get(block.height, 0) + 1
    scoped = workload if args.include_as0 else workload.without_as0()
    per_as = {}
    groups: dict[int, list[float]] = {}
    for asn in scoped.asns():
        prefixes = scoped.prefixes_for(asn)
        sd = float(scatter_degree(prefixes))
        per_as[str(asn)] = {"prefix_count": len(prefixes), "scatter_degree": sd}
        groups.setdefault(len(prefixes), []).append(sd)
    doc = {
        "as_count": len(scoped.entries),
        "vrp_count": scoped.vrp_count(),
        "include_as0": bool(args.include_as0),
        "delta_l_histogram": {
            fam: {str(h): n for h, n in sorted(hist[fam].items())} for fam in hist
        },
        "scatter_degree": {
            "per_as": per_as,
            "mean": (sum(v["scatter_degree"] for v in per_as.values()) / len(per_as))
            if per_as
            else None,
        },
        "groups": {
            str(k): {"as_count": len(v), "mean_scatter_degree": sum(v) / len(v)}
            for k, v in sorted(groups.items())
        },
    }
    _write(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    workload = load_csv(args.csv)
    thresholds = [math.inf if t == "inf" else int(t) for t in args.thresholds.split(",")]
    multiples = [int(m) for m in args.multiples.split(",")]
    table = sync.sweep_parameters(
        workload.entries,
        thresholds,
        multiples,
        aggregate=args.aggregate,
    )
    cells = [
        {
            "threshold": ("inf" if math.isinf(t) else t),
            "multiple": m,
            "pdu_count": cell.pdu_count,
            "total_bytes": cell.total_bytes,
        }
        for (t, m), cell in sorted(
            table.items(), key=lambda kv: (kv[0][1], float(kv[0][0]))
        )
    ]
    best_bytes = min(cells, key=lambda c: (c["total_bytes"], c["pdu_count"]))
    best_count = min(cells, key=lambda c: (c["pdu_count"], c["total_bytes"]))
    doc = {
        "optimize": args.optimize,
        "cells": cells,
        "best_by_bytes": best_bytes,
        "best_by_count": best_count,
        "best": best_count if args.optimize == "count" else best_bytes,
    }
    _write(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_optimize_levels(args) -> int:
    workload = load_csv(args.csv)
    family = _FAMILY_NAMES[args.family]
    threshold = _delta_l(args.delta_l)
    # each AS's own prefixes: the wire sends one sub-tree per AS and root
    by_as = {}
    for asn, blocks in workload.entries.items():
        prefixes = expand_all(
            b for b in blocks if b.prefix.family == family and b.height < threshold
        )
        if prefixes:
            by_as[asn] = prefixes
    if not by_as:
        raise ValueError(f"no {args.family} prefixes below the threshold")
    levels, cost = optimize_levels(by_as)
    doc = {
        "family": args.family,
        "levels": list(levels),
        "cost_bytes": cost,
        "h_max": wire.MAX_SUBTREE_HEIGHT,
        "prefix_count": sum(map(len, by_as.values())),
    }
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _parse_bandwidth(text: str | None) -> float | None:
    if not text:
        return None
    t, mult = text.strip().lower(), 1.0
    for suffix, scale in (("gbps", 1e9), ("mbps", 1e6), ("kbps", 1e3), ("bps", 1.0)):
        if t.endswith(suffix):
            t, mult = t[: -len(suffix)], scale
            break
    rate = float(t) * mult
    if not rate > 0:
        raise ValueError(f"--bandwidth {text!r}: must be positive")
    return rate


def _check_range(name: str, value: int | None, low: int, high: int) -> None:
    if value is not None and not low <= value <= high:
        raise ValueError(f"{name} {value} is outside {low}..{high}")


def cmd_serve(args) -> int:
    _check_range("--port", args.port, 0, 0xFFFF)
    _check_range("--session-id", args.session_id, 0, 0xFFFF)
    _check_range("--serial", args.serial, 0, 0xFFFFFFFF)
    bandwidth = _parse_bandwidth(args.bandwidth)
    workload = load_csv(args.csv)
    cfg = _build_config(args)
    snapshot = _snapshot(args, workload, cfg)
    try:
        server = sync.RtrServer(snapshot, args.scheme, args.host, args.port, bandwidth)
    except OSError as exc:
        where = f"{args.host}:{args.port}"
        raise ValueError(f"cannot listen on {where}: {exc.strerror or exc}") from None
    host, port = server.endpoint
    print(f"serving {args.scheme} snapshot on {host}:{port}", file=sys.stderr)
    try:
        signal.pause()
    except (KeyboardInterrupt, AttributeError):
        pass
    finally:
        server.close()
    return 0


def cmd_fetch(args) -> int:
    host, _, port = args.endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError("endpoint must be host:port")
    _check_range("endpoint port", int(port), 1, 0xFFFF)
    # 0 would make the socket non-blocking, so connect fails as a transport error
    if not 0 < args.timeout < math.inf:
        raise ValueError(f"--timeout {args.timeout} is not a positive number of seconds")
    cfg = HybridConfig(hanging=_build_profile(args))
    got, report = sync.fetch((host, int(port)), cfg, timeout=args.timeout)
    if args.out:
        rows = [
            (asn, AddressBlock(p, p.prefixlen))
            for asn, prefixes in got.items()
            for p in prefixes
        ]
        with open(args.out, "w") as fh:
            fh.write(dump_csv(sorted(rows)))
    print(report.to_json())
    return 0


def _add_profile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--levels", action="append", metavar="LIST|FILE",
                   help="hanging levels: comma list or profile JSON (repeatable)")
    p.add_argument("--level-multiple", type=int, metavar="M",
                   help="hanging levels at multiples of M")


def _add_cfg_flags(p: argparse.ArgumentParser) -> None:
    _add_profile_flags(p)
    p.add_argument("--delta-l", metavar="T", default=str(DEFAULT_HEIGHT_THRESHOLD),
                   help="block height threshold for the maxLength path "
                   "(int or inf, default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hroa",
        description="Route-origin authorization encoding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a CSV workload to a PDU file")
    p.add_argument("csv")
    p.add_argument("--scheme", choices=sync.SCHEMES, default="hroa")
    p.add_argument("--out", help="write concatenated PDUs here")
    p.add_argument("--recompress", action="store_true",
                   help="re-derive minimal blocks from the filed ones")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a PDU file back to CSV rows")
    p.add_argument("pdufile")
    p.add_argument("--out")
    _add_profile_flags(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="scatter-degree and block-height statistics")
    p.add_argument("csv")
    p.add_argument("--include-as0", action="store_true",
                   help="include AS0 rows in scatter-degree figures")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="grid-sweep threshold and level multiple")
    p.add_argument("csv")
    p.add_argument("--thresholds", default="0,1,2,3,4,5",
                   help="comma list, inf allowed (default 0,1,2,3,4,5)")
    p.add_argument("--multiples", default="3,4,5", help="comma list (default 3,4,5)")
    p.add_argument("--optimize", choices=("bytes", "count"), default="bytes")
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize-levels", help="fit a hanging-level profile to a workload")
    p.add_argument("csv")
    p.add_argument("--family", choices=("v4", "v6"), default="v4")
    p.add_argument("--delta-l", default=str(DEFAULT_HEIGHT_THRESHOLD),
                   help="only optimize blocks below this height "
                   "(int or inf for every block, default %(default)s)")
    p.add_argument("--out", help="write the profile JSON here (usable via --levels)")
    p.set_defaults(func=cmd_optimize_levels)

    p = sub.add_parser("serve", help="serve a snapshot over the sync protocol")
    p.add_argument("csv")
    p.add_argument("--scheme", choices=sync.SERVE_SCHEMES, default="hroa")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--bandwidth", help="rate limit, e.g. 10mbps (default unlimited)")
    p.add_argument("--session-id", type=int, default=None)
    p.add_argument("--serial", type=int, default=1)
    p.add_argument("--recompress", action="store_true")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fetch", help="sync from a cache and report transfer cost")
    p.add_argument("endpoint", help="host:port")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="seconds the whole sync may take (default %(default)g)")
    p.add_argument("--out", help="write decoded rows as CSV here")
    _add_profile_flags(p)
    p.set_defaults(func=cmd_fetch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (``hroa encode ... | head``); point it at devnull
        # so the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PrefixFormatError, ExpansionCapError) as exc:
        _err(str(exc))
        return 2
    except wire.FramingError as exc:
        _err(f"bad PDU data: {exc}")
        return 2
    except sync.SyncError as exc:
        _err(str(exc))
        return 3
    except OSError as exc:  # a file that cannot be read or written
        _err(str(exc))
        return 2
    except (ValueError, KeyError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
