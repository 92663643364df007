import pytest
from hypothesis import given, strategies as st

from hroa.prefix import (
    V4,
    V6,
    AddressBlock,
    ExpansionCapError,
    FamilyMismatchError,
    Prefix,
    PrefixFormatError,
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
