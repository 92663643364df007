"""Independent expected results for the benchmark's checks.

Expected prefix sets come from the generator's rows through this file's own
expansion, never through ``hroa.expand`` or ``CacheSnapshot.authorized_map``.
Expected wire sizes follow the paper's default configuration (hybrid height
threshold 3, hanging levels every 5 bits, RFC 8210 prefix PDUs and the
sub-tree PDU types 12-15), counted from the rows alone.
"""

from __future__ import annotations

from gen import V4, V6, WIDTH, Row

HEIGHT_THRESHOLD = 3
LEVEL_STEP = 5
LAST_LEVEL = {V4: 30, V6: 125}
PREFIX_PDU = {V4: 20, V6: 32}
SUBTREE_PDU = {V4: 20, V6: 32}
AGG_HEADER = 12
AGG_STRIDE = {V4: 8, V6: 20}
FRAME = 8 + 24  # cache response + end of data

Node = tuple[int, int, int]  # (family, bits, prefixlen)


def expand_row(row: Row) -> set[Node]:
    """Every prefix a row authorizes: its full sub-tree down to max_length."""
    fam, width = row.family, WIDTH[row.family]
    out = set()
    for plen in range(row.prefixlen, row.max_length + 1):
        depth = plen - row.prefixlen
        shift = width - plen
        for tail in range(1 << depth):
            out.add((fam, row.bits | (tail << shift), plen))
    return out


def expected_map(rows: list[Row]) -> dict[int, set[Node]]:
    out: dict[int, set[Node]] = {}
    for r in rows:
        out.setdefault(r.asn, set()).update(expand_row(r))
    return out


def update_map(
    prev: dict[int, set[Node]], old_rows: list[Row], new_rows: list[Row]
) -> dict[int, set[Node]]:
    """expected_map(new_rows), recomputing only the ASes whose rows changed."""
    changed = {r.asn for r in set(old_rows) ^ set(new_rows)}
    out = {asn: s for asn, s in prev.items() if asn not in changed}
    for r in new_rows:
        if r.asn in changed:
            out.setdefault(r.asn, set()).update(expand_row(r))
    return out


def _subtree(node: Node) -> tuple[int, int, int]:
    fam, bits, plen = node
    level = min(LEVEL_STEP * (plen // LEVEL_STEP), LAST_LEVEL[fam])
    return fam, level, bits >> (WIDTH[fam] - level)


def subtrees(rows: list[Row]) -> dict[tuple[int, int], set]:
    """(asn, family) -> the distinct bitmap sub-trees its short blocks touch."""
    out: dict[tuple[int, int], set] = {}
    for r in set(rows):
        if r.height < HEIGHT_THRESHOLD:
            acc = out.setdefault((r.asn, r.family), set())
            acc.update(_subtree(n) for n in expand_row(r))
    return out


def expected_wire(rows: list[Row], recompress: bool = False) -> dict[str, tuple[int, int]]:
    """scheme -> (payload PDUs, full reset-response bytes).

    ``recompress`` is supported only for inputs that minimal compression
    leaves as they are: every AS holds height-0 rows of a single length.
    """
    unique = set(rows)
    if recompress:
        lens: dict[int, set[int]] = {}
        for r in unique:
            if r.height:
                raise ValueError("oracle cannot recompress rows with height > 0")
            lens.setdefault(r.asn, set()).add(r.prefixlen)
        if any(len(v) > 1 for v in lens.values()):
            raise ValueError("oracle cannot recompress mixed prefix lengths in one AS")
    ml = [r for r in unique if r.height >= HEIGHT_THRESHOLD]
    ml_bytes = sum(PREFIX_PDU[r.family] for r in ml)
    trees = subtrees(rows)
    bm_pdus = sum(len(t) for t in trees.values())
    bm_bytes = sum(SUBTREE_PDU[fam] * len(t) for (_, fam), t in trees.items())
    agg_bytes = sum(AGG_HEADER + AGG_STRIDE[fam] * len(t) for (_, fam), t in trees.items())
    return {
        "mroa": (len(unique), FRAME + sum(PREFIX_PDU[r.family] for r in unique)),
        "hroa": (len(ml) + bm_pdus, FRAME + ml_bytes + bm_bytes),
        "ahroa": (len(ml) + len(trees), FRAME + ml_bytes + agg_bytes),
    }


def map_diff(decoded, expected: dict[int, set[Node]]) -> tuple[int, int]:
    """(missing, extra) prefixes of the client's {asn: set[Prefix]} map.

    Compared one AS at a time, so that the check never holds a second copy
    of the whole decoded map and so does not set the process's peak memory.
    """
    missing = extra = 0
    for asn in expected.keys() | decoded.keys():
        got = {(p.family, p.bits, p.prefixlen) for p in decoded.get(asn, ())}
        want = expected.get(asn, set())
        if got != want:
            missing += len(want - got)
            extra += len(got - want)
    return missing, extra


def check_sync(decoded, report, expected, serial, session_id, server) -> str | None:
    """None when one fetch's result is right; otherwise what was wrong."""
    missing, extra = map_diff(decoded, expected)
    if missing or extra:
        return f"decoded map differs: {missing} prefixes missing, {extra} extra"
    if report.serial != serial:
        return f"serial {report.serial}, expected {serial}"
    if report.session_id != session_id:
        return f"session {report.session_id}, expected {session_id}"
    if report.pdu_count != server.payload_pdu_count:
        return f"{report.pdu_count} payload PDUs received, server sent {server.payload_pdu_count}"
    if report.total_bytes != server.response_bytes:
        return f"{report.total_bytes} bytes received, server sent {server.response_bytes}"
    return None


def check_publish(servers, wire: dict[str, tuple[int, int]]) -> str | None:
    """None when every server's response has the expected PDU and byte counts."""
    for scheme, srv in servers.items():
        got = (srv.payload_pdu_count, srv.response_bytes)
        if got != wire[scheme]:
            return f"{scheme}: (pdus, bytes) {got}, expected {wire[scheme]}"
    return None
