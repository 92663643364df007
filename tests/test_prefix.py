import copy
import ipaddress
import pickle
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

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
    _parse_fast,
    expand,
    parse_prefix,
)
from oracles import oracle_expand


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
    """parse_prefix as it reads every text without its inet_pton fast path."""
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


# octet and length spellings around the plain form: leading zeros, signs,
# separators, inner spaces, full-width digits, out-of-range values, empty
_ODD_NUMBERS = ["0", "00", "010", "08", "+1", "-0", "-1", "1_0", " 1", "1 ", "\uff11",
                "1\uff10", "256", "999", "1000", "", "0x1"]
_NUMBER = st.one_of(st.integers(0, 300).map(str), st.sampled_from(_ODD_NUMBERS))
_LENGTH = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["08", "008", "+8", "\uff18", "", "255.0.0.0", "255.255.255.0",
                     "0.255.255.255", "255.0.255.0", "33", "-1", "1e1"]),
)
_V4_TEXT = st.builds(
    lambda octets, length, sep, pad: pad + ".".join(octets) + sep + length + pad,
    st.lists(_NUMBER, min_size=3, max_size=5),
    _LENGTH,
    st.sampled_from(["/", "/", "/", "//", " /"]),
    st.sampled_from(["", "", " ", "\t", "\n", "\u3000"]),
)
# v6 spellings around the plain form: hex groups of 1-4 digits in mixed case
# with now and then one odd group (empty, 5 digits, not hex), "::" at the
# start, in the middle, at the end or twice, too many or too few groups, an
# embedded v4 tail, a scope id
_HEXTET = st.builds(lambda value, digits, upper: f"{value:0{digits}{'X' if upper else 'x'}}",
                    st.integers(0, 0xFFFF), st.integers(1, 4), st.booleans())
_ODD_HEXTET = st.one_of(st.text(alphabet="0123456789abcdefABCDEF", max_size=5),
                        st.sampled_from(["g", "0x1", "1_0", " 1", "\uff11"]))
_V6_LENGTH = st.one_of(
    st.integers(0, 128).map(str),
    st.sampled_from(["032", "+32", "129", "\uff18", "", "-0", "3_2", " 32", "ffff::"]),
)


@st.composite
def _v6_texts(draw):
    shape = draw(st.sampled_from(["none", "start", "middle", "middle", "end", "twice"]))
    fits = 8 if shape == "none" else draw(st.integers(0, 7))  # the right group count
    count = draw(st.one_of(st.just(fits), st.integers(0, 10)))
    groups = draw(st.lists(_HEXTET, min_size=count, max_size=count))
    if groups and draw(st.integers(0, 3)) == 0:
        groups[draw(st.integers(0, count - 1))] = draw(_ODD_HEXTET)
    cuts = {
        "none": [], "start": [0], "end": [count],
        "middle": [draw(st.integers(0, count))],
        "twice": sorted(draw(st.lists(st.integers(0, count), min_size=2, max_size=2))),
    }[shape]
    parts, at = [], 0
    for cut in cuts:
        parts.append(":".join(groups[at:cut]))
        at = cut
    addr = "::".join(parts + [":".join(groups[at:])])
    addr += draw(st.sampled_from(["", "", "", "", ":10.0.0.1", ":1.2.3", ":"]))
    addr += draw(st.sampled_from(["", "", "", "", "%eth0", "%"]))
    length = draw(_V6_LENGTH)
    pad = draw(st.sampled_from(["", "", " ", "\n", "\u3000"]))
    return pad + addr + draw(st.sampled_from(["/", "/", "/", "//"])) + length + pad


_OTHER_TEXT = st.one_of(
    st.sampled_from(["2001:db8::/32", "2001:db8::1/32", "::/0", "::ffff:10.0.0.0/104",
                     "::ffff:10.0.0.0/96", "10.0.0.0", "10.0.0.0/8/8", "/8", "1.2.3.4/32"]),
    st.text(max_size=24),
)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(_V4_TEXT, _v6_texts(), _OTHER_TEXT), st.booleans())
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


def test_v4_fast_path_takes_exactly_four_canonical_octets():
    # every string of up to 7 characters over digits, dots and one non-digit
    for size in range(8):
        for chars in product("019.x", repeat=size):
            addr = "".join(chars)
            octets = addr.split(".")
            canonical = len(octets) == 4 and all(o in _DECIMAL for o in octets)
            assert (_parse_fast(addr + "/8", False, V4) is not None) == canonical, addr


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
    # the differential test above means something only if the fast path runs
    p, spelling = case
    if spelling == "mapped":
        text = f"::ffff:{ipaddress.IPv4Address(p.bits & 0xFFFFFFFF)}/{p.prefixlen}"
    else:
        net = ipaddress.IPv6Network((p.bits, p.prefixlen))
        text = net.exploded if spelling == "exploded" else str(net)
    text = text.upper() if upper else text
    fast = _parse_fast(text, True, V6)
    assert fast == p
    _assert_as_checked([fast])


@pytest.mark.parametrize(
    "text", ["1:2:3:4::5:6:7:8/128", "::ffff:01.2.3.4/128", "::%1/0", "00001::/16"])
def test_v6_fast_path_leaves_odd_spellings_to_ipaddress(text):
    assert _parse_fast(text, False, V6) is None


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
