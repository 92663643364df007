import io

import pytest

from hroa.mlcodec import scatter_degree
from hroa.prefix import AddressBlock, PrefixFormatError, Vrp, parse_prefix
from hroa.workload import (
    Workload,
    dump_csv,
    load_csv,
    parse_vrp_row,
    synthetic_scattered,
)

FIG_CSV = """asn,prefix,max_length
AS7497,202.127.16.0/20,
AS7497,202.127.16.0/21,
AS7497,202.127.16.0/22,
AS7497,202.127.20.0/22,
"""


def test_parse_row_variants():
    assert parse_vrp_row(["7497", "202.127.16.0/20", "22"]) == Vrp(
        7497, AddressBlock(parse_prefix("202.127.16.0/20"), 22)
    )
    assert parse_vrp_row(["AS7497", "202.127.16.0/20", ""]).block.max_length == 20
    assert parse_vrp_row(["as7497", "202.127.16.0/20"]).asn == 7497
    # lenient prefix parse masks stray host bits
    assert parse_vrp_row(["1", "202.127.16.9/20", ""]).block.prefix == parse_prefix(
        "202.127.16.0/20"
    )


def test_parse_row_rejections():
    with pytest.raises(PrefixFormatError):
        parse_vrp_row(["x", "10.0.0.0/8", ""], lineno=3)
    with pytest.raises(PrefixFormatError):
        parse_vrp_row(["1", "10.0.0.0", ""])
    with pytest.raises(PrefixFormatError):
        parse_vrp_row(["1", "10.0.0.0/8", "7"])  # max below prefixlen
    with pytest.raises(PrefixFormatError):
        parse_vrp_row(["1"])


def test_load_csv_with_header_comments_blanks():
    text = "# a comment\n" + FIG_CSV + "\n\n"
    w = load_csv(io.StringIO(text))
    assert w.asns() == [7497]
    assert w.vrp_count() == 4
    assert len(w.prefixes_for(7497)) == 4


def test_load_csv_headerless():
    w = load_csv(io.StringIO("7497,202.127.16.0/20,22\n"))
    assert w.vrp_count() == 1


def test_load_csv_malformed_first_row_is_no_header():
    # a first row whose AS column is a number is data, so a bad one fails
    with pytest.raises(PrefixFormatError) as exc:
        load_csv(io.StringIO("AS7497,202.127.16.0/33,\nAS7497,202.127.16.0/20,\n"))
    assert str(exc.value).startswith("line 1: ")
    # one whose AS column holds no number is a header, whatever the other columns say
    w = load_csv(io.StringIO("origin,prefix/len,max\nAS7497,202.127.16.0/20,\n"))
    assert w.vrp_count() == 1


def test_load_csv_bad_row_past_header_raises():
    with pytest.raises(PrefixFormatError) as exc:
        load_csv(io.StringIO(FIG_CSV + "oops,not-a-prefix,\n"))
    assert "line 6" in str(exc.value)


def test_load_csv_empty_rejected():
    with pytest.raises(PrefixFormatError):
        load_csv(io.StringIO("asn,prefix,max_length\n"))


def test_dedup_and_ordering():
    w = Workload()
    v = parse_vrp_row(["1", "10.0.0.0/8", "9"])
    w.add(v)
    w.add(v)
    w.add(parse_vrp_row(["1", "9.0.0.0/8", ""]))
    assert w.vrp_count() == 2
    assert [str(x.block.prefix) for x in w.vrps()] == ["9.0.0.0/8", "10.0.0.0/8"]
    # a repeated row among many: kept once
    rows = [parse_vrp_row(["2", f"10.{i // 256}.{i % 256}.0/24", ""]) for i in range(3000)]
    for vrp in rows[:2000] + [rows[1000]] + rows[2000:] + rows[::7]:
        w.add(vrp)
    assert w.entries[2] == {v.block for v in rows}
    assert w.vrp_count() == 2 + 3000


def test_dump_round_trip():
    w = load_csv(io.StringIO(FIG_CSV))
    text = dump_csv(w.vrps())
    assert text.splitlines()[0] == "asn,prefix,max_length"
    again = load_csv(io.StringIO(text))
    assert again.entries == w.entries


def test_without_as0():
    w = load_csv(io.StringIO("0,10.0.0.0/8,32\n1,10.0.0.0/8,\n"))
    assert w.asns() == [0, 1]
    assert w.without_as0().asns() == [1]


def test_synthetic_scattered_shape():
    w = synthetic_scattered(200, seed=1)
    assert w.vrp_count() == 200
    blocks = [b for blocks in w.entries.values() for b in blocks]
    assert all(b.height == 0 and b.prefix.prefixlen == 24 for b in blocks)
    # same-length leaves never merge: worst case for the maxLength path
    for asn in w.asns():
        prefixes = w.prefixes_for(asn)
        assert scatter_degree(prefixes) == 1


def test_synthetic_scattered_deterministic():
    a = synthetic_scattered(50, seed=9)
    b = synthetic_scattered(50, seed=9)
    assert a.entries == b.entries
    c = synthetic_scattered(50, seed=10)
    assert a.entries != c.entries


def test_synthetic_scattered_validation():
    with pytest.raises(ValueError):
        synthetic_scattered(0)
    with pytest.raises(ValueError):
        synthetic_scattered(10, root_len=24, leaf_len=24)
