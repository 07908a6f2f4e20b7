"""Evidence-document parsing, serialization, and builtins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credfuse import (
    BUILTIN_DOCUMENTS,
    Frame,
    MassFunction,
    builtin_document,
    dump_evidence_document,
    parse_evidence_document,
)
from credfuse.documents import DocumentError, EvidenceDocument, format_table, matrix_table

DOC = """
{
  "frame": ["A1", "A2", "A3"],
  "evidence": [
    {"name": "m1", "masses": {"A1": 0.7, "A2": 0.1, "A1,A2,A3": 0.2}},
    {"name": "m2", "masses": {"A1": 0.7, "A1,A2,A3": 0.3}}
  ],
  "tau": 100.0
}
"""


class TestParsing:
    def test_parse_document(self):
        doc = parse_evidence_document(DOC)
        assert doc.frame.events == ("A1", "A2", "A3")
        assert doc.names == ["m1", "m2"]
        assert doc.mass_functions[0].mass("A1,A2,A3") == pytest.approx(0.2)
        assert doc.overrides == {"tau": 100.0}

    def test_round_trip_identity(self):
        doc = parse_evidence_document(DOC)
        again = parse_evidence_document(dump_evidence_document(doc))
        assert again.frame == doc.frame
        assert again.names == doc.names
        for a, b in zip(again.mass_functions, doc.mass_functions):
            assert a == b
        assert again.overrides == doc.overrides

    def test_round_trip_all_builtins(self):
        for name in BUILTIN_DOCUMENTS:
            doc = builtin_document(name)
            again = parse_evidence_document(dump_evidence_document(doc))
            assert [m for _, m in again.evidence] == [m for _, m in doc.evidence]

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.text(st.one_of(st.sampled_from(" ,\t\n\u00a0"), st.characters()),
                                   max_size=4), min_size=1, max_size=5, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_of_every_accepted_label_set(self, labels, seed):
        try:
            frame = Frame(tuple(labels))
        except ValueError:
            assert any("," in label or label != label.strip() for label in labels)
            return
        rng = np.random.default_rng(seed)
        subsets = np.arange(1, 1 << frame.n)
        masks = rng.choice(subsets, size=min(4, len(subsets)), replace=False).tolist()
        weights = rng.random(len(masks)) + 0.1
        m = MassFunction(frame, dict(zip(masks, (weights / weights.sum()).tolist())))
        again = parse_evidence_document(
            dump_evidence_document(EvidenceDocument(frame, (("m1", m),))))
        assert again.frame == frame and again.mass_functions == [m]

    def test_unknown_label_rejected(self):
        bad = DOC.replace('"A1": 0.7, "A2": 0.1', '"A9": 0.7, "A2": 0.1')
        with pytest.raises(DocumentError):
            parse_evidence_document(bad)

    def test_invalid_masses_rejected(self):
        bad = DOC.replace("0.2}", "0.9}")
        with pytest.raises(DocumentError):
            parse_evidence_document(bad)

    @pytest.mark.parametrize("setting", [
        '"tau": NaN', '"tau": Infinity', '"tau": -1', '"delta": NaN', '"max_iter": 0',
        '"tau": "fast"',
    ])
    def test_invalid_fusion_setting_rejected(self, setting):
        with pytest.raises(DocumentError):
            parse_evidence_document(DOC.replace('"tau": 100.0', setting))

    def test_fractional_max_iter_rejected(self):
        # was truncated to 2
        with pytest.raises(DocumentError, match="max_iter"):
            parse_evidence_document(DOC.replace('"tau": 100.0', '"max_iter": 2.5'))

    def test_bool_max_iter_rejected(self):
        # was read as 1
        with pytest.raises(DocumentError, match="max_iter"):
            parse_evidence_document(DOC.replace('"tau": 100.0', '"max_iter": true'))

    def test_bool_tau_rejected(self):
        # was read as 1.0
        with pytest.raises(DocumentError, match="tau"):
            parse_evidence_document(DOC.replace('"tau": 100.0', '"tau": true'))

    def test_integer_settings_kept(self):
        doc = parse_evidence_document(DOC.replace('"tau": 100.0', '"tau": 50, "max_iter": 7'))
        assert doc.overrides == {"tau": 50, "max_iter": 7}

    def test_null_mass_rejected(self):
        with pytest.raises(DocumentError):
            parse_evidence_document(DOC.replace('"A2": 0.1', '"A2": null'))

    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse_evidence_document("frame: [A1]")

    def test_missing_frame(self):
        with pytest.raises(DocumentError):
            parse_evidence_document('{"evidence": []}')

    @pytest.mark.parametrize("frame", ['"AB"', "5", "null", '{"A": 1}'])
    def test_frame_that_is_not_a_list_rejected(self, frame):
        # a string was read as its characters; a number or null ended in a TypeError
        with pytest.raises(DocumentError, match="'frame' must be a list"):
            parse_evidence_document(DOC.replace('["A1", "A2", "A3"]', frame))

    @pytest.mark.parametrize("label", ['["A1"]', '{"A1": 1}', "null", "true", "false"])
    def test_label_that_is_not_a_string_or_a_number_rejected(self, label):
        with pytest.raises(DocumentError, match="is not a string or a number"):
            parse_evidence_document(DOC.replace('"A2", "A3"]', f'{label}, "A3"]'))

    def test_number_labels_accepted(self):
        doc = parse_evidence_document('{"frame": [1, 2.5], "evidence": [{"masses": {"1": 1}}]}')
        assert doc.frame.events == ("1", "2.5")

    @pytest.mark.parametrize("masses", ["[1, 2]", '"A1"', "1.0", "null"])
    def test_masses_that_are_not_an_object_rejected(self, masses):
        # a list ended in an AttributeError
        bad = DOC.replace('{"A1": 0.7, "A1,A2,A3": 0.3}', masses)
        with pytest.raises(DocumentError, match=r"evidence\[1\] \(m2\): 'masses' must be"):
            parse_evidence_document(bad)

    def test_empty_evidence(self):
        with pytest.raises(DocumentError):
            parse_evidence_document('{"frame": ["A"], "evidence": []}')

    def test_default_names(self):
        doc = parse_evidence_document(
            '{"frame": ["A"], "evidence": [{"masses": {"A": 1.0}}]}'
        )
        assert doc.names == ["m1"]


class TestBuiltins:
    def test_known_names(self):
        assert set(BUILTIN_DOCUMENTS) == {"close-pair", "conflict-sensors", "fault-sensors"}

    def test_aliases(self):
        assert builtin_document("example1").names == builtin_document("fault-sensors").names
        pair = builtin_document("example6")
        assert len(pair.evidence) == 2

    def test_unknown(self):
        with pytest.raises(KeyError):
            builtin_document("mystery")

    def test_fault_sensors_shape(self):
        # the shared fixtures read this builtin, so check its layout directly
        doc = builtin_document("fault-sensors")
        assert doc.frame.events == ("A1", "A2", "A3")
        assert doc.names == ["m1", "m2", "m3", "m4", "m5"]
        assert doc.mass_functions[4] == MassFunction(doc.frame, {"A2": 0.2, "A3": 0.8})


class TestTables:
    def test_format_precision(self):
        text = format_table(["a", "b"], [[1, 0.123456]], precision=4)
        assert text == "a\tb\n1\t0.1235\n"

    def test_full_precision(self):
        text = format_table(["x"], [[0.123456789]], precision=None)
        assert "0.123456789" in text

    def test_matrix_layout(self):
        text = matrix_table([[0.0, 1.0], [1.0, 0.0]], ["r1", "r2"], ["c1", "c2"],
                            corner="name")
        lines = text.strip().split("\n")
        assert lines[0] == "name\tc1\tc2"
        assert lines[1] == "r1\t0.0000\t1.0000"
