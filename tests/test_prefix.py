import ipaddress

import pytest
from hypothesis import example, given, settings, strategies as st

from hroa.prefix import (
    V4,
    V6,
    AddressBlock,
    ExpansionCapError,
    FamilyMismatchError,
    Prefix,
    PrefixFormatError,
    block_order,
    covers,
    expand,
    parent,
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


def test_covers_worked_example():
    outer = parse_prefix("202.127.16.0/20")
    inner = parse_prefix("202.127.20.0/22")
    assert covers(outer, inner)
    assert not covers(inner, outer)
    assert covers(outer, outer)
    assert covers(parse_prefix("0.0.0.0/0"), outer)
    assert not covers(parse_prefix("202.127.32.0/20"), inner)


def test_covers_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        covers(parse_prefix("0.0.0.0/0"), parse_prefix("::/0"))


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
    assert len(expand(AddressBlock(parse_prefix("10.0.0.0/8"), 18), cap=10)) == 2**11 - 1


def test_children_and_parent():
    p = parse_prefix("202.127.16.0/20")
    lo, hi = sorted(expand(AddressBlock(p, 21)) - {p})
    assert str(lo) == "202.127.16.0/21"
    assert str(hi) == "202.127.24.0/21"
    assert parent(lo) == p and parent(hi) == p
    with pytest.raises(ValueError):
        parent(parse_prefix("0.0.0.0/0"))


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


@given(_v4_prefixes(max_len=28), st.integers(0, 4))
def test_expand_matches_oracle_and_cardinality(p, extra):
    block = AddressBlock(p, min(32, p.prefixlen + extra))
    got = expand(block)
    assert got == oracle_expand(block)
    assert len(got) == 2 ** (block.height + 1) - 1
    assert all(covers(p, q) for q in got)


@given(_v4_prefixes(), _v4_prefixes())
def test_covers_agrees_with_expansion_membership(a, b):
    # covers() is the order "b is in a's sub-tree"
    if covers(a, b):
        assert b.prefixlen >= a.prefixlen
        if b.prefixlen - a.prefixlen <= 6:
            assert b in expand(AddressBlock(a, b.prefixlen))
    if covers(a, b) and covers(b, a):
        assert a == b


def _parse_via_ipaddress(text: str, strict: bool) -> Prefix:
    """parse_prefix as it reads every text without the v4 fast path."""
    if "/" not in text:
        raise PrefixFormatError(f"missing /len in {text!r}")
    try:
        net = ipaddress.ip_network(text.strip(), strict=strict)
    except ValueError as exc:
        raise PrefixFormatError(str(exc)) from None
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
_OTHER_TEXT = st.one_of(
    st.sampled_from(["2001:db8::/32", "2001:db8::1/32", "::/0", "::ffff:10.0.0.0/104",
                     "::ffff:10.0.0.0/96", "10.0.0.0", "10.0.0.0/8/8", "/8", "1.2.3.4/32"]),
    st.text(max_size=24),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_V4_TEXT, _OTHER_TEXT), st.booleans())
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
def test_parse_fast_path_agrees_with_ipaddress(text, strict):
    assert _outcome(parse_prefix, text, strict) == _outcome(_parse_via_ipaddress, text, strict)


@st.composite
def _blocks(draw):
    family = draw(st.sampled_from((V4, V6)))
    width = 32 if family == V4 else 128
    plen = draw(st.integers(0, width))
    top = draw(st.integers(0, (1 << min(plen, 3)) - 1))  # few distinct roots, so keys tie
    prefix = Prefix(family, top << (width - min(plen, 3)), plen)
    return AddressBlock(prefix, draw(st.integers(plen, min(width, plen + 2))))


@given(st.lists(_blocks(), max_size=12))
def test_block_order_sorts_as_blocks_compare(blocks):
    assert sorted(blocks, key=block_order) == sorted(blocks)
