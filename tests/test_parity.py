"""The group comparison that ``tests/parity.py --against REV`` prints."""

from .parity import compare, group_digests

DIGEST = {name: name[0] * 64 for name in ("a", "b", "c", "d", "e")}

#: Outputs as the parity script prints them, the first with ``--records b``.
OURS = f"""40 records
{"f" * 64}
builtin: 18 records {DIGEST['a']}
trace: 6 records {DIGEST['b']}
wide-frame: 10 records {DIGEST['c']}
icef-new: 6 records {DIGEST['e']}
['trace', 'x', 'pbagd'] {DIGEST['a']}
"""
THEIRS = f"""40 records
{"0" * 64}
builtin: 18 records {DIGEST['a']}
trace: 6 records {DIGEST['d']}
wide-frame: 12 records {DIGEST['c']}
icef-old: 4 records {DIGEST['e']}
"""


def test_group_lines_are_read_and_nothing_else():
    assert group_digests(OURS) == {"builtin": ("18", DIGEST["a"]), "trace": ("6", DIGEST["b"]),
                                   "wide-frame": ("10", DIGEST["c"]),
                                   "icef-new": ("6", DIGEST["e"])}


def test_a_group_is_same_only_with_its_digest_and_count_on_both_sides():
    # trace's digest differs, wide-frame's count, and each icef group is on
    # one side only
    assert compare(OURS, THEIRS) == [("builtin", "same"), ("trace", "moved"),
                                     ("wide-frame", "moved"), ("icef-old", "moved"),
                                     ("icef-new", "moved")]
    assert compare(THEIRS, THEIRS) == [(name, "same") for name in group_digests(THEIRS)]
