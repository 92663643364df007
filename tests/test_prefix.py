import copy
import io
import ipaddress
import pickle
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from hroa import workload
from hroa.bmcodec import HangingLevels, decode_block, encode_batch
from hroa.mlcodec import compress_minimal
from hroa.prefix import (
    V4,
    V6,
    WIDTH,
    AddressBlock,
    ExpansionCapError,
    Prefix,
    PrefixFormatError,
    _DECIMAL,
    expand,
    parse_prefix,
)
from hroa.workload import dump_csv, load_csv
from oracles import oracle_expand
from spellings import V4_ADDRESS, v6_addresses


def test_parse_worked_example():
    p = parse_prefix("202.127.16.0/20")
    assert p.family == V4
    assert p.bits == 0xCA7F1000
    assert p.prefixlen == 20
    assert str(p) == "202.127.16.0/20"


def test_parse_v6():
    p = parse_prefix("2001:db8::/32")
    assert p.family == V6
    assert p.bits == 0x20010DB8 << 96
    assert str(p) == "2001:db8::/32"


def test_parse_rejects_host_bits_when_strict():
    with pytest.raises(PrefixFormatError):
        parse_prefix("202.127.16.1/20")
    assert parse_prefix("202.127.16.1/20", strict=False).bits == 0xCA7F1000


def test_parse_requires_length():
    with pytest.raises(PrefixFormatError):
        parse_prefix("10.0.0.0")


def test_prefix_validates_host_bits():
    with pytest.raises(ValueError):
        Prefix(V4, 0xCA7F1001, 20)


def test_expand_worked_example():
    block = AddressBlock(parse_prefix("202.127.16.0/20"), 21)
    assert expand(block) == {
        parse_prefix("202.127.16.0/20"),
        parse_prefix("202.127.16.0/21"),
        parse_prefix("202.127.24.0/21"),
    }


def test_expand_cap():
    block = AddressBlock(parse_prefix("10.0.0.0/8"), 32)
    with pytest.raises(ExpansionCapError):
        expand(block)
    assert len(expand(AddressBlock(parse_prefix("10.0.0.0/8"), 18))) == 2**11 - 1


def test_ordering_is_family_bits_len():
    ps = [
        parse_prefix("::/0"),
        parse_prefix("202.127.16.0/21"),
        parse_prefix("202.127.16.0/20"),
        parse_prefix("1.0.0.0/8"),
    ]
    assert [str(p) for p in sorted(ps)] == [
        "1.0.0.0/8",
        "202.127.16.0/20",
        "202.127.16.0/21",
        "::/0",
    ]


def _v4_prefixes(max_len=32):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1 if n else 0).map(
            lambda top: Prefix(V4, top << (32 - n), n)
        )
    )


@given(_v4_prefixes())
def test_parse_format_round_trip(p):
    assert parse_prefix(str(p)) == p


def _in_subtree(outer: Prefix, inner: Prefix) -> bool:
    """inner lies in outer's sub-tree (reflexive)."""
    shift = outer.width - outer.prefixlen
    return (outer.family == inner.family and outer.prefixlen <= inner.prefixlen
            and inner.bits >> shift == outer.bits >> shift)


@given(_v4_prefixes(max_len=28), st.integers(0, 4))
def test_expand_matches_oracle_and_cardinality(p, extra):
    block = AddressBlock(p, min(32, p.prefixlen + extra))
    got = expand(block)
    assert got == oracle_expand(block)
    assert len(got) == 2 ** (block.height + 1) - 1
    assert all(_in_subtree(p, q) for q in got)


def _parse_via_ipaddress(text: str, strict: bool) -> Prefix:
    """parse_prefix's contract: ipaddress.ip_network plus its two refusals."""
    if "/" not in text:
        raise PrefixFormatError(f"missing /len in {text!r}")
    try:
        net = ipaddress.ip_network(text.strip(), strict=strict)
    except ValueError as exc:
        raise PrefixFormatError(str(exc)) from None
    if "%" in text:
        raise PrefixFormatError(f"scope id not allowed in {text.strip()!r}")
    return Prefix(V4 if net.version == 4 else V6, int(net.network_address), net.prefixlen)


def _outcome(parse, text, strict):
    try:
        return parse(text, strict)
    except PrefixFormatError as exc:
        return f"PrefixFormatError: {exc}"


# length spellings around the plain form: leading zeros, signs, full-width
# digits, netmasks and host masks, out-of-range values, empty
_LENGTH = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["08", "008", "+8", "\uff18", "", "255.0.0.0", "255.255.255.0",
                     "0.255.255.255", "255.0.255.0", "33", "-1", "1e1"]),
)
_V6_LENGTH = st.one_of(
    st.integers(0, 128).map(str),
    st.sampled_from(["032", "+32", "129", "\uff18", "", "-0", "3_2", " 32", "ffff::"]),
)
_PAD = st.sampled_from(["", "", " ", "\t", "\n", "\u3000"])
_PREFIX_TEXT = st.builds(
    lambda addr, sep, length, pad: pad + addr + sep + length + pad,
    st.one_of(V4_ADDRESS, v6_addresses()),
    st.sampled_from(["/", "/", "/", "//", " /"]),
    st.one_of(_LENGTH, _V6_LENGTH),
    _PAD,
)
_OTHER_TEXT = st.one_of(
    st.sampled_from(["2001:db8::/32", "2001:db8::1/32", "::/0", "::ffff:10.0.0.0/104",
                     "::ffff:10.0.0.0/96", "10.0.0.0", "10.0.0.0/8/8", "/8", "1.2.3.4/32"]),
    st.text(max_size=24),
)


# parse_prefix reads every text as ipaddress does, texts and refusals alike; a
# fast path put in front of ipaddress has to keep this passing
@settings(max_examples=1500, deadline=None)
@given(st.one_of(_PREFIX_TEXT, _OTHER_TEXT), st.booleans())
@example("10.0.0.0/08", True)
@example("10.0.0.0/255.0.0.0", True)
@example("10.0.0.0/0.255.255.255", False)
@example(" 10.0.0.1/8\n", False)
@example("010.0.0.0/8", True)
@example("\uff11.0.0.0/8", False)
@example("10.0.0.256/32", False)
@example("10.0.0.0/33", False)
@example("2001:db8::1/32", False)
@example("10.0.0.1/8", True)
@example("2001:DB8:0:0:0:0:0:1/128", True)
@example("2001:db8::1/32", True)
@example("1:2:3:4:5:6:7::/112", True)
@example("::1:2:3:4:5:6:7/128", True)
@example("1:2:3:4:5:6:7:8::/128", True)
@example("1::2::3/64", True)
@example("::ffff:10.0.0.0/104", False)
@example("fe80::1%eth0/64", False)
@example("2001:db8::/032", True)
@example("2001:db8::/+32", True)
@example("2001:db8::/129", True)
@example("2001:db8::/\uff18", True)
@example("00000::/8", True)
@example(" 2001:db8::/32\n", True)
@example("1.2.3.4\x00/8", True)
@example("1.2.3.4\x00/8", False)
@example("1.2.3.\ud800/8", True)
@example("1.2.3.\ud800/8", False)
@example("1.2.3/8", True)
@example("1.2.3/8", False)
@example("0x1.2.3.4/8", True)
@example("0x1.2.3.4/8", False)
@example("1.2.3.4./8", True)
@example("1.2.3.4./8", False)
@example("1.2.3.04/8", True)
@example("1.2.3.04/8", False)
@example("::ffff:1.2.3.4/128", True)
@example("::1.2.3.4/128", True)
@example("1:2:3:4:5:6:1.2.3.4/128", True)
@example("1:2:3:4::5:6:7:8/128", True)
@example("::ffff:01.2.3.4/128", True)
@example("::%1/0", True)
@example("00001::/16", True)
def test_parse_fast_path_agrees_with_ipaddress(text, strict):
    assert _outcome(parse_prefix, text, strict) == _outcome(_parse_via_ipaddress, text, strict)


def _load_with_a_counting_parse_row(text):
    """load_csv of text, each row that reaches _parse_row replaced by one AS 0 row.

    Returns the workload and the line numbers _parse_row was called with, so
    it tells apart the rows load_csv read inline from the rest.
    """
    reached = []

    def stand_in(row, lineno, asns):
        reached.append(lineno)
        return 0, AddressBlock(Prefix(V4, 0, 0), 0)

    with patch.object(workload, "_parse_row", stand_in):
        return load_csv(io.StringIO(text)), reached


def test_v4_fast_path_takes_exactly_four_canonical_octets():
    # load_csv reads a row inline exactly when its address is four canonical
    # octets; /32 leaves no host bits.  Every string of up to 7 characters over
    # digits, dots and one non-digit, one row each
    addrs = ["".join(chars) for size in range(8) for chars in product("019.x", repeat=size)]
    w, reached = _load_with_a_counting_parse_row(
        "".join(f"1,{addr}/32,32\n" for addr in addrs))
    canonical = [len(a.split(".")) == 4 and all(o in _DECIMAL for o in a.split(".")) for a in addrs]
    assert reached == [lineno for lineno, c in enumerate(canonical, start=1) if not c]
    assert w.entries[1] == {AddressBlock(parse_prefix(f"{a}/32"), 32)
                            for a, c in zip(addrs, canonical) if c}
    _assert_as_checked(block.prefix for block in w.entries[1])


@st.composite
def _blocks(draw):
    family = draw(st.sampled_from((V4, V6)))
    width = 32 if family == V4 else 128
    plen = draw(st.integers(0, width))
    top = draw(st.integers(0, (1 << min(plen, 3)) - 1))  # few distinct roots, so keys tie
    prefix = Prefix(family, top << (width - min(plen, 3)), plen)
    return AddressBlock(prefix, draw(st.integers(plen, min(width, plen + 2))))


# -- the value-type contract ----------------------------------------------------


@st.composite
def _prefixes(draw, families=(V4, V6)):
    family = draw(st.sampled_from(families))
    width = WIDTH[family]
    plen = draw(st.integers(0, width))
    top = draw(st.integers(0, (1 << plen) - 1))
    return Prefix(family, top << (width - plen), plen)


def _value_error(build, *args) -> str:
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


@given(st.integers().filter(lambda f: f not in (V4, V6)), st.integers(), st.integers())
def test_prefix_rejects_a_bad_family(family, bits, plen):
    assert _value_error(Prefix, family, bits, plen) == f"bad family {family!r}"


@given(st.sampled_from((V4, V6)), st.integers(), st.data())
def test_prefix_rejects_a_prefixlen_out_of_range(family, bits, data):
    width = WIDTH[family]
    plen = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=width + 1)))
    assert _value_error(Prefix, family, bits, plen) == (
        f"prefixlen {plen} out of range for v{family}"
    )


@given(st.sampled_from((V4, V6)), st.data())
def test_prefix_rejects_bits_out_of_range(family, data):
    width = WIDTH[family]
    plen = data.draw(st.integers(0, width))
    bits = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << width)))
    assert _value_error(Prefix, family, bits, plen) == "address bits out of range"


@given(st.sampled_from((V4, V6)), st.data())
def test_prefix_rejects_host_bits(family, data):
    width = WIDTH[family]
    plen = data.draw(st.integers(0, width - 1))
    bits = data.draw(st.integers(0, (1 << width) - 1).filter(
        lambda b: b & ((1 << (width - plen)) - 1)))
    assert _value_error(Prefix, family, bits, plen) == f"host bits set below /{plen}"


@given(_prefixes(), st.data())
def test_block_rejects_a_max_length_out_of_range(prefix, data):
    below = st.integers(max_value=prefix.prefixlen - 1)
    max_length = data.draw(st.one_of(below, st.integers(min_value=prefix.width + 1)))
    assert _value_error(AddressBlock, prefix, max_length) == (
        f"max_length {max_length} out of range for {prefix}"
    )


def _same_value(built, checked):
    """built and checked are one value of one type, down to repr and str."""
    assert type(built) is type(checked)
    assert built == checked and hash(built) == hash(checked)
    assert repr(built) == repr(checked) and str(built) == str(checked)


def _assert_as_checked(prefixes):
    prefixes = list(prefixes)
    checked = [Prefix(p.family, p.bits, p.prefixlen) for p in prefixes]
    for p, q in zip(prefixes, checked):
        _same_value(p, q)
    assert sorted(prefixes) == sorted(checked)


@given(_prefixes(), st.integers(0, 4))
def test_expand_builds_what_the_checked_constructor_builds(root, extra):
    _assert_as_checked(expand(AddressBlock(root, min(root.width, root.prefixlen + extra))))


@given(st.sampled_from((V4, V6)), st.data())
def test_decode_block_builds_what_the_checked_constructor_builds(family, data):
    cfg = HangingLevels.default(family)
    prefixes = data.draw(st.lists(_prefixes((family,)), min_size=1, max_size=8))
    for block in encode_batch(cfg, prefixes):
        _assert_as_checked(decode_block(cfg, block)[1])


@given(_v4_prefixes(), st.booleans())
def test_parse_fast_path_builds_what_the_checked_constructor_builds(p, strict):
    _assert_as_checked([parse_prefix(str(p), strict)])


# a v4 prefix mapped into ::ffff:0:0/96
_MAPPED = _prefixes((V4,)).map(lambda q: Prefix(V6, 0xFFFF << 32 | q.bits, 96 + q.prefixlen))


@given(st.one_of(
    st.tuples(_prefixes((V6,)), st.sampled_from(["compressed", "exploded"])),
    st.tuples(_MAPPED, st.just("mapped")),
), st.booleans())
def test_v6_fast_path_takes_compressed_and_exploded_spellings(case, upper):
    # load_csv reads each of these rows inline, to the prefix it spells
    p, spelling = case
    if spelling == "mapped":
        text = f"::ffff:{ipaddress.IPv4Address(p.bits & 0xFFFFFFFF)}/{p.prefixlen}"
    else:
        net = ipaddress.IPv6Network((p.bits, p.prefixlen))
        text = net.exploded if spelling == "exploded" else str(net)
    text = text.upper() if upper else text
    w, reached = _load_with_a_counting_parse_row(f"1,{text},{p.prefixlen}\n")
    assert reached == []
    [block] = w.entries[1]
    assert block == (p, p.prefixlen)
    _assert_as_checked([block.prefix])
    _same_value(block, AddressBlock(p, p.prefixlen))


@pytest.mark.parametrize(
    "text", ["1:2:3:4::5:6:7:8/128", "::ffff:01.2.3.4/128", "::%1/0", "00001::/16"])
def test_v6_fast_path_leaves_odd_spellings_to_ipaddress(text):
    # as the first row and after a known AS text, the row goes to _parse_row,
    # whose parse_prefix reads it with ipaddress
    length = text.rsplit("/", 1)[1]
    for csv_text, lineno in ((f"1,{text},{length}\n", 1), (f"1,::/0,0\n1,{text},{length}\n", 2)):
        assert _load_with_a_counting_parse_row(csv_text)[1] == [lineno]


@given(st.lists(st.tuples(st.integers(0, (1 << 32) - 1), _blocks()), min_size=1, max_size=20))
def test_dump_csv_rows_are_all_read_inline(rows):
    # load_csv(dump_csv(rows)) sends no v4 or v6 row through _parse_row
    w, reached = _load_with_a_counting_parse_row(dump_csv(rows))
    assert reached == []
    want = {}
    for asn, block in rows:
        want.setdefault(asn, set()).add(block)
    assert w.entries == want
    for blocks in w.entries.values():
        for block in blocks:
            _same_value(block, AddressBlock(*block))
            _same_value(block.prefix, Prefix(*block.prefix))


@given(st.lists(st.one_of(_prefixes(), _blocks()), min_size=1, max_size=10))
def test_compress_minimal_blocks_are_checked_blocks(items):
    # a one-length family of input blocks is returned as is, so those are checked too
    for block in compress_minimal(items):
        _same_value(block, AddressBlock(block.prefix, block.max_length))


@given(_prefixes())
def test_a_prefix_is_its_plain_tuple(p):
    assert p == (p.family, p.bits, p.prefixlen)
    assert hash(p) == hash((p.family, p.bits, p.prefixlen))
    block = AddressBlock(p, p.prefixlen)
    assert block == ((p.family, p.bits, p.prefixlen), p.prefixlen)


@given(st.one_of(_prefixes(), _blocks()))
def test_copy_and_pickle_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in copies:
        _same_value(got, value)
