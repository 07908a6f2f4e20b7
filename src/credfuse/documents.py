"""Evidence-set documents and tabular exports.

An evidence document is a JSON object with the frame's event labels, a list
of named mass functions whose keys are comma-joined event labels, and
optional fusion overrides::

    {
      "frame": ["A1", "A2", "A3"],
      "evidence": [
        {"name": "m1", "masses": {"A1": 0.7, "A2": 0.1, "A1,A2,A3": 0.2}}
      ],
      "tau": 200.0,
      "delta": 1e-6
    }

Parsing only ever yields valid mass functions; unknown event labels are
rejected.  A handful of builtin documents cover the bundled worked examples
so demonstrations and tests need no external files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import Frame, MassFunction
from .fusion import IcefConfig


class DocumentError(ValueError):
    """An evidence document is malformed or inconsistent."""


@dataclass(frozen=True, eq=False)
class EvidenceDocument:
    frame: Frame
    evidence: tuple[tuple[str, MassFunction], ...]
    overrides: dict = field(default_factory=dict)

    @property
    def mass_functions(self) -> list[MassFunction]:
        return [m for _, m in self.evidence]

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.evidence]


def parse_evidence_document(text: str) -> EvidenceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")
    if "frame" not in raw:
        raise DocumentError("missing 'frame'")
    if not isinstance(raw["frame"], list):
        raise DocumentError("'frame' must be a list of event labels")
    for label in raw["frame"]:
        if label is None or isinstance(label, (bool, list, dict)):
            raise DocumentError(f"event label {json.dumps(label)} is not a string or a number")
    try:
        frame = Frame(tuple(raw["frame"]))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    entries = raw.get("evidence")
    if not isinstance(entries, list) or not entries:
        raise DocumentError("'evidence' must be a non-empty list")
    evidence = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "masses" not in entry:
            raise DocumentError(f"evidence[{i}] must be an object with 'masses'")
        name = str(entry.get("name", f"m{i + 1}"))
        if not isinstance(entry["masses"], dict):
            raise DocumentError(f"evidence[{i}] ({name}): 'masses' must be an object")
        try:
            mass = MassFunction(frame, entry["masses"])
        except (KeyError, ValueError) as exc:
            raise DocumentError(f"evidence[{i}] ({name}): {exc}") from exc
        evidence.append((name, mass))
    overrides = {key: raw[key] for key in ("tau", "delta", "max_iter") if key in raw}
    try:
        IcefConfig(**overrides)  # the types and ranges the fusion loop accepts
    except ValueError as exc:
        raise DocumentError(f"invalid fusion setting: {exc}") from exc
    return EvidenceDocument(frame, tuple(evidence), overrides)


def load_evidence_document(path) -> EvidenceDocument:
    with open(path) as fh:
        return parse_evidence_document(fh.read())


def dump_evidence_document(doc: EvidenceDocument, indent: int = 2) -> str:
    frame = doc.frame
    payload: dict = {
        "frame": list(frame.events),
        "evidence": [
            {
                "name": name,
                "masses": {frame.subset_str(mask): value for mask, value in m.items()},
            }
            for name, m in doc.evidence
        ],
    }
    payload.update(doc.overrides)
    return json.dumps(payload, indent=indent)


def _document(labels, rows, names=None) -> EvidenceDocument:
    frame = Frame(tuple(labels))
    names = names or [f"m{i + 1}" for i in range(len(rows))]
    evidence = tuple(
        (name, MassFunction(frame, masses)) for name, masses in zip(names, rows)
    )
    return EvidenceDocument(frame, evidence)


def _fault_sensors() -> EvidenceDocument:
    # Five sensor reports over three fault hypotheses; the fifth sensor is
    # disturbed and flatly contradicts the rest.
    return _document(
        ("A1", "A2", "A3"),
        [
            {"A1": 0.70, "A2": 0.10, "A1,A2,A3": 0.20},
            {"A1": 0.70, "A1,A2,A3": 0.30},
            {"A1": 0.65, "A2": 0.15, "A1,A2,A3": 0.20},
            {"A1": 0.75, "A3": 0.05, "A1,A2,A3": 0.20},
            {"A2": 0.20, "A3": 0.80},
        ],
    )


def _conflict_sensors() -> EvidenceDocument:
    # Five reports over three hypotheses with a compound focal set; the
    # second report conflicts with the other four.
    return _document(
        ("A1", "A2", "A3"),
        [
            {"A1": 0.40, "A2": 0.28, "A3": 0.30, "A1,A3": 0.02},
            {"A1": 0.01, "A2": 0.90, "A3": 0.08, "A1,A3": 0.01},
            {"A1": 0.63, "A2": 0.06, "A3": 0.01, "A1,A3": 0.30},
            {"A1": 0.60, "A2": 0.09, "A3": 0.01, "A1,A3": 0.30},
            {"A1": 0.60, "A2": 0.09, "A3": 0.01, "A1,A3": 0.30},
        ],
    )


def _close_pair() -> EvidenceDocument:
    # Two nearby reports over four hypotheses differing only in how much
    # mass sits on the whole frame.
    return _document(
        ("A1", "A2", "A3", "A4"),
        [
            {"A1": 0.75, "A2": 0.10, "A3": 0.10, "A1,A2,A3,A4": 0.05},
            {"A1": 0.65, "A2": 0.10, "A3": 0.10, "A1,A2,A3,A4": 0.15},
        ],
    )


_BUILTIN_FACTORIES = {
    "fault-sensors": _fault_sensors,
    "conflict-sensors": _conflict_sensors,
    "close-pair": _close_pair,
}

#: Aliases by bundled-example number.
_BUILTIN_ALIASES = {
    "example1": "fault-sensors",
    "example6": "close-pair",
}

BUILTIN_DOCUMENTS = tuple(sorted(_BUILTIN_FACTORIES))


def builtin_document(name: str) -> EvidenceDocument:
    key = name.lower()
    key = _BUILTIN_ALIASES.get(key, key)
    try:
        factory = _BUILTIN_FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"unknown builtin document {name!r}; available: {BUILTIN_DOCUMENTS}"
        ) from None
    return factory()


def format_table(header, rows, precision: int | None = 4, delimiter: str = "\t") -> str:
    """Render a header plus rows as delimiter-separated text.

    Floats are fixed to ``precision`` decimals unless precision is None.
    """
    def fmt(value):
        if isinstance(value, float) and precision is not None:
            return f"{value:.{precision}f}"
        return str(value)

    lines = [delimiter.join(str(h) for h in header)]
    lines.extend(delimiter.join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def matrix_table(values, row_labels, col_labels, corner: str = "", precision=4) -> str:
    """A labelled matrix as delimiter-separated text."""
    header = [corner, *col_labels]
    rows = [[label, *map(float, row)] for label, row in zip(row_labels, values)]
    return format_table(header, rows, precision=precision)
