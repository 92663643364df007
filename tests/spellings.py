"""Hypothesis grammars of address spellings around the plain forms.

Shared by the parse_prefix and load_csv differentials.
"""

from hypothesis import strategies as st

# v4 address spellings around the plain form: octets with leading zeros, signs,
# separators, inner spaces, full-width digits, out-of-range values, empty
ODD_NUMBERS = ["0", "00", "010", "08", "+1", "-0", "-1", "1_0", " 1", "1 ", "\uff11",
               "1\uff10", "256", "999", "1000", "", "0x1"]
NUMBER = st.one_of(st.integers(0, 300).map(str), st.sampled_from(ODD_NUMBERS))
V4_ADDRESS = st.lists(NUMBER, min_size=3, max_size=5).map(".".join)
# v6 spellings around the plain form: hex groups of 1-4 digits in mixed case
# with now and then one odd group (empty, 5 digits, not hex), "::" at the
# start, in the middle, at the end or twice, too many or too few groups, an
# embedded v4 tail, a scope id
HEXTET = st.builds(lambda value, digits, upper: f"{value:0{digits}{'X' if upper else 'x'}}",
                   st.integers(0, 0xFFFF), st.integers(1, 4), st.booleans())
ODD_HEXTET = st.one_of(st.text(alphabet="0123456789abcdefABCDEF", max_size=5),
                       st.sampled_from(["g", "0x1", "1_0", " 1", "\uff11"]))


@st.composite
def v6_addresses(draw):
    shape = draw(st.sampled_from(["none", "start", "middle", "middle", "end", "twice"]))
    fits = 8 if shape == "none" else draw(st.integers(0, 7))  # the right group count
    count = draw(st.one_of(st.just(fits), st.integers(0, 10)))
    groups = draw(st.lists(HEXTET, min_size=count, max_size=count))
    if groups and draw(st.integers(0, 3)) == 0:
        groups[draw(st.integers(0, count - 1))] = draw(ODD_HEXTET)
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
    return addr + draw(st.sampled_from(["", "", "", "", "%eth0", "%"]))
