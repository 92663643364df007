import csv
import io
import ipaddress
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from hroa.mlcodec import scatter_degree
from hroa.prefix import V4, V6, AddressBlock, PrefixFormatError, parse_prefix
from hroa.workload import (
    Workload,
    _asn_number,
    _parse_asn,
    _parse_row,
    dump_csv,
    load_csv,
    synthetic_scattered,
)
from spellings import V4_ADDRESS, v6_addresses

FIG_CSV = """asn,prefix,max_length
AS7497,202.127.16.0/20,
AS7497,202.127.16.0/21,
AS7497,202.127.16.0/22,
AS7497,202.127.20.0/22,
"""


def test_parse_row_variants():
    assert _parse_row(["7497", "202.127.16.0/20", "22"], 0, {}) == (
        7497, AddressBlock(parse_prefix("202.127.16.0/20"), 22)
    )
    assert _parse_row(["AS7497", "202.127.16.0/20", ""], 0, {})[1].max_length == 20
    assert _parse_row(["as7497", "202.127.16.0/20"], 0, {})[0] == 7497
    # lenient prefix parse masks stray host bits
    assert _parse_row(["1", "202.127.16.9/20", ""], 0, {})[1].prefix == parse_prefix(
        "202.127.16.0/20"
    )


def test_parse_row_rejections():
    with pytest.raises(PrefixFormatError):
        _parse_row(["x", "10.0.0.0/8", ""], 3, {})
    with pytest.raises(PrefixFormatError):
        _parse_row(["1", "10.0.0.0", ""], 0, {})
    with pytest.raises(PrefixFormatError):
        _parse_row(["1", "10.0.0.0/8", "7"], 0, {})  # max below prefixlen
    with pytest.raises(PrefixFormatError):
        _parse_row(["1"], 0, {})


def _parse_row_with_checked_constructors(row, lineno):
    """_parse_row built from the checked AddressBlock constructor and an AS range check."""
    if len(row) < 2:
        raise PrefixFormatError(f"line {lineno}: expected asn,prefix/len,max_length")
    try:
        asn = _parse_asn(row[0])
        if not 0 <= asn < 1 << 32:
            raise ValueError(f"asn {asn} out of range")
        prefix = parse_prefix(row[1], strict=False)
        raw_max = row[2].strip() if len(row) > 2 else ""
        max_length = int(raw_max) if raw_max else prefix.prefixlen
        return asn, AddressBlock(prefix, max_length)
    except (PrefixFormatError, ValueError) as exc:
        raise PrefixFormatError(f"line {lineno}: {exc}") from None


def _row_outcome(parse, row):
    try:
        asn, block = parse(row, 7)
    except PrefixFormatError as exc:
        return f"PrefixFormatError: {exc}"
    assert type(asn) is int and type(block) is AddressBlock
    return repr((asn, block))


_AS_TEXT = st.one_of(st.integers(0, 70000).map(str), st.sampled_from(
    ["AS7497", "as7", " 7", "+7", "7_4", "\uff17", "x", "", "4294967296", "-1", "AS"]))
_PREFIX_TEXT = st.sampled_from(
    ["10.0.0.0/8", "10.0.0.1/8", "202.127.16.0/20", "0.0.0.0/0", "1.2.3.4/32", "10.0.0.0/08",
     "2001:db8::/32", "2001:db8::1/32", "::/0", "::1/128", "fe80::1%eth0/64", "10.0.0.0",
     "10.0.0.0/33", "2001:db8::/129", " 10.0.0.0/8 "])
_MAX_TEXT = st.one_of(st.integers(0, 140).map(str), st.sampled_from(
    ["", " ", " 9", "9 ", "+9", "09", "-1", "\uff19", "1_0", "x", "9.0", "255", "256"]))


@settings(max_examples=500, deadline=None)
@given(st.tuples(_AS_TEXT, _PREFIX_TEXT, _MAX_TEXT), st.integers(0, 4))
@example(("7497", "202.127.16.0/20", "+22"), 3)
@example(("7497", "202.127.16.0/20", "19"), 3)
@example(("7497", "2001:db8::/32", "200"), 3)
def test_parse_row_agrees_with_checked_constructors(fields, keep):
    # keep cuts the row short (a missing max_length column, or more) or adds a column
    row = [*fields, "extra"][:keep]
    assert _row_outcome(lambda row, lineno: _parse_row(row, lineno, {}), row) == _row_outcome(
        _parse_row_with_checked_constructors, row)


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


BOM_CSV = "\ufeff7497,202.127.16.0/20,22\n7497,10.0.0.0/8,\n"


def _block_texts(w):
    return sorted(str(b) for blocks in w.entries.values() for b in blocks)


def test_load_csv_ignores_a_leading_bom_in_a_stream():
    # the BOM is no part of the first AS number, so the first row is data, not a header
    w = load_csv(io.StringIO(BOM_CSV))
    assert _block_texts(w) == ["10.0.0.0/8-8", "202.127.16.0/20-22"]
    assert load_csv(io.StringIO("\ufeff" + FIG_CSV)).entries == load_csv(io.StringIO(FIG_CSV)).entries


def test_load_csv_ignores_a_leading_bom_in_a_file(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(BOM_CSV.encode("utf-8"))
    assert _block_texts(load_csv(path)) == ["10.0.0.0/8-8", "202.127.16.0/20-22"]


def test_load_csv_bad_row_past_header_raises():
    with pytest.raises(PrefixFormatError) as exc:
        load_csv(io.StringIO(FIG_CSV + "oops,not-a-prefix,\n"))
    assert "line 6" in str(exc.value)


def test_load_csv_empty_rejected():
    with pytest.raises(PrefixFormatError):
        load_csv(io.StringIO("asn,prefix,max_length\n"))


def test_dedup_and_ordering():
    w = Workload()
    v = _parse_row(["1", "10.0.0.0/8", "9"], 0, {})
    w.add(*v)
    w.add(*v)
    w.add(*_parse_row(["1", "9.0.0.0/8", ""], 0, {}))
    assert w.vrp_count() == 2
    assert sorted(map(str, w.entries[1])) == ["10.0.0.0/8-9", "9.0.0.0/8-8"]
    # a repeated row among many: kept once
    rows = [_parse_row(["2", f"10.{i // 256}.{i % 256}.0/24", ""], 0, {}) for i in range(3000)]
    for asn, block in rows[:2000] + [rows[1000]] + rows[2000:] + rows[::7]:
        w.add(asn, block)
    assert w.entries[2] == {block for _, block in rows}
    assert w.vrp_count() == 2 + 3000


def test_dump_round_trip():
    w = load_csv(io.StringIO(FIG_CSV))
    text = dump_csv((asn, b) for asn, blocks in w.entries.items() for b in blocks)
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


def _reference_load(text):
    """load_csv of a stream as a loop that sends every data row through _parse_row."""
    w = Workload()
    asns = {}
    lines = iter(io.StringIO(text))
    first = next(lines, "").removeprefix("\ufeff")
    first_data = True
    for lineno, row in enumerate(csv.reader(chain((first,), lines)), start=1):
        if not (row and row[0] in asns):
            if not "".join(row).strip() or row[0].strip().startswith("#"):
                continue
            if first_data:
                first_data = False
                if _asn_number(row[0]) is None:
                    continue
        w.add(*_parse_row(row, lineno, asns))
    if not w.entries:
        raise PrefixFormatError("<stream>: no usable rows")
    return w


@st.composite
def _prefix_and_max(draw):
    """A prefix and a max_length column: mostly canonical, with or without host bits."""
    max_text = draw(st.one_of(st.integers(0, 130).map(str),
                              st.sampled_from(["", " 9", "+9", "09", "x", "-1", "\uff19"])))
    odd = draw(st.integers(0, 9))
    if odd == 0:
        return draw(st.sampled_from(
            ["10.0.0.0/08", "10.0.0.0/255.0.0.0", " 10.0.0.0/8", "10.0.0.0/8 ", "10.0.0.0",
             "10.0.0.0/33", "1.2.3/8", "01.2.3.4/32", "2001:DB8:0::/32", "::ffff:10.0.0.0/104",
             "2001:db8::1.2.3.4/126", "fe80::1%eth0/64", "::/129", "2001:db8::/+32", "",
             "10.0.0.0/8/9", "10.0.0.0/\uff18", "10.0.0.\x00/8", "\ud800/8"])), max_text
    if odd == 1:
        # an address spelling at full length: no host bits keep it from the inline
        # read, so load_csv takes it there exactly when inet_pton does
        addr, width = draw(st.one_of(V4_ADDRESS.map(lambda a: (a, 32)),
                                     v6_addresses().map(lambda a: (a, 128))))
        return f"{addr}/{width}", str(width)
    family = draw(st.sampled_from([V4, V6]))
    width = 32 if family == V4 else 128
    plen = draw(st.one_of(st.integers(0, width), st.sampled_from([0, width - 1, width])))
    bits = draw(st.integers(0, (1 << width) - 1))
    if draw(st.booleans()):
        bits &= ~((1 << (width - plen)) - 1)  # no host bits
    if draw(st.integers(0, 4)):
        max_text = str(plen + draw(st.integers(-1, 3)))
    addr = ipaddress.IPv4Address(bits) if family == V4 else ipaddress.IPv6Address(bits)
    return f"{addr}/{plen}", max_text


# AS texts: three that parse, repeated, else one of the lenient or bad spellings
_CSV_AS = st.sampled_from(["64500", "AS64500", "0"] * 6 + [
    "as64500", " 64501", "64501 ", "AS 7", "+5", "4294967296", "x", ""])


@st.composite
def _csv_texts(draw):
    """CSV text from a grammar of data rows, blanks, comments, headers, quotes and a BOM."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(
                ["", ",,,", "# a comment", "  #x,1,2", "asn,prefix,max_length"])))
            continue
        fields = [draw(_CSV_AS), *draw(_prefix_and_max())]
        fields = fields[:draw(st.sampled_from([1, 2] + [3] * 8))]
        fields += ["extra"] * draw(st.integers(0, 1))
        if kind == 1:
            fields = [f'"{f}"' for f in fields]
        lines.append(",".join(fields))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _load_outcome(load, text):
    try:
        return load(text).entries
    except PrefixFormatError as exc:
        return f"PrefixFormatError: {exc}"


@settings(max_examples=600, deadline=None)
@given(_csv_texts())
@example("64500,10.0.0.0/8,8\n64500,10.0.0.1/32,32\n64500,10.0.0.0/8,\n")
@example("64500,2001:db8::/32,48\n64500,2001:db8::/32,129\n64500,::1/128,128\n")
@example("AS1,10.0.0.0/8,8\nAS1,bad/32,32\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.1/8,8\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/8,33\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/9,x\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.1/32,33\n")
# each exit of the ingest loop's own parse, in a row after a known AS text:
# inet_pton's ValueError on a NUL or a lone surrogate, a v6 row, host bits,
# length texts past the width, not a number or not canonical, a max_length
# below the length, and CRLF line ends
@example("1,10.0.0.0/8,8\n1,10.0.0.\x00/8,8\n")
@example("1,10.0.0.0/8,8\n1,\ud800/8,8\n")
@example("1,10.0.0.0/8,8\n1,2001:db8::/32,48\n1,2001:db8::1/32,48\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/6,8\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/33,33\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/x,8\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/08,8\n")
@example("1,10.0.0.0/8,8\n1,10.0.0.0/16,8\n")
@example("1,10.0.0.0/8,8\r\n1,10.0.0.0/9,9\r\n1,10.0.0.0/9,\r\n")
# first rows, which the ingest loop reads inline too once it has read the AS
# text: host bits, an empty or lenient max_length, an AS number out of range,
# one column, and header-like first lines
@example("1,10.0.0.1/8,8\n")
@example("1,10.0.0.0/8,\n1,10.0.0.0/9,9\n")
@example("1,10.0.0.0/8, 9\n")
@example("4294967296,10.0.0.0/8,8\n")
@example("1\n1,10.0.0.0/8,8\n")
@example("asn,10.0.0.0/8,8\n1,10.0.0.0/8,8\n")
@example("AS,prefix,max_length\nAS,10.0.0.0/8,8\n")
@example("# asn,prefix\n\n,,\nx,10.0.0.0/8,8\n1,10.0.0.0/8,8\n")
# prefix spellings at each edge of inet_pton and ipaddress, as first rows
@example("1,10.0.0.0/08,8\n")
@example("1,10.0.0.0/ 8,8\n")
@example("1,10.0.0.0/+8,8\n")
@example("1,10.0.0.0/\uff18,8\n")
@example("1,10.0.0.0/255.0.0.0,8\n")
@example("1,10.0.0.0/0.255.255.255,8\n")
@example('1," 10.0.0.1/8\n",8\n')
@example("1,010.0.0.0/8,8\n")
@example("1,\uff11.0.0.0/8,8\n")
@example("1,10.0.0.256/32,32\n")
@example("1,10.0.0.0/33,33\n")
@example("1,2001:db8::1/32,32\n")
@example("1,2001:DB8:0:0:0:0:0:1/128,128\n")
@example("1,1:2:3:4:5:6:7::/112,112\n")
@example("1,::1:2:3:4:5:6:7/128,128\n")
@example("1,1:2:3:4:5:6:7:8::/128,128\n")
@example("1,1::2::3/64,64\n")
@example("1,::ffff:10.0.0.0/104,104\n")
@example("1,fe80::1%eth0/64,64\n")
@example("1,2001:db8::/032,32\n")
@example("1,2001:db8::/+32,32\n")
@example("1,2001:db8::/129,129\n")
@example("1,2001:db8::/\uff18,8\n")
@example("1,00000::/8,8\n")
@example("1, 2001:db8::/32 ,32\n")
@example("1,1.2.3.4\x00/8,8\n")
@example("1,1.2.3.\ud800/8,8\n")
@example("1,1.2.3/8,8\n")
@example("1,0x1.2.3.4/8,8\n")
@example("1,1.2.3.4./8,8\n")
@example("1,1.2.3.04/8,8\n")
@example("1,::ffff:1.2.3.4/128,128\n")
@example("1,::1.2.3.4/128,128\n")
@example("1,1:2:3:4:5:6:1.2.3.4/128,128\n")
@example("1,1:2:3:4::5:6:7:8/128,128\n")
@example("1,::ffff:01.2.3.4/128,128\n")
@example("1,::%1/0,0\n")
@example("1,00001::/16,16\n")
def test_load_csv_matches_a_parse_row_reference(text):
    assert _load_outcome(lambda t: load_csv(io.StringIO(t)), text) == _load_outcome(
        _reference_load, text)
