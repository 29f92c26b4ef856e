"""A single-fault corpus of model documents, built from the TravelAgency fixture.

Two base documents are mutated: the fixture itself, and the fixture with one
instance of every optional key the format has (attributes, simple types,
mapping URIs, faults, fault references, optional flags and parameters).  For
every object in a base document each case makes exactly one change:

- drop one key,
- add one unknown key,
- give one value a value of another JSON type,
- replace one string with a token that is not an NCName and not a URI, one
  that is an NCName but no URI, or one that is a URI but no NCName,
- and, for every list, the same two kinds of change to each item, plus the
  empty list.

``tests/expected/model_faults.json`` records what ``parse_model`` did with each
case, as written by the hand-written per-type parsers that preceded the field
table in ``wspolicy.modelfile``.  Run this module as a script to print the
current parser's record in the same format:

    PYTHONPATH=src python tests/model_faults.py > record.json
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).parent / "fixtures" / "travel_agency.json"

XS = "http://www.w3.org/2001/XMLSchema"
SEC = "http://emi/ws-semanticsecuritypolicy.xsd"
TYPES = "http://emi/TravelAgencyTypes.xsd"

OTHER_TYPES = (7, True, None, "s", [], {})
TOKENS = ("1 bad", "plain", "http://x/y")


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def enriched_fixture() -> dict:
    """The fixture plus one instance of every optional key."""
    doc = fixture()
    onto = "http://example.org/sec-onto#"
    doc["domains"][0]["assertions"] += [
        {
            "name": "Level",
            "typeKind": "simple",
            "simpleType": {"namespace": XS, "local": "int"},
            "annotation": {
                "modelReference": [onto + "Level"],
                "loweringSchema": "http://example.org/lower.xslt",
                "liftingSchema": "http://example.org/lift.xslt",
            },
        },
        {
            "name": "Timestamp",
            "typeKind": "complex",
            "attributes": [
                {
                    "name": "ttl",
                    "simpleType": {"namespace": XS, "local": "int"},
                    "annotation": {"modelReference": [onto + "TimeToLive"]},
                }
            ],
        },
    ]
    interface = doc["interfaces"][0]
    interface["faults"] = [
        {"name": "bookingFault", "elementType": {"namespace": TYPES, "local": "bookingFault"}}
    ]
    interface["operations"][0]["faultRefs"] = ["bookingFault"]
    doc["attachments"].append({
        "subject": {"kind": "operation", "path": ["TravelAgencyInterface", "bookTrip"]},
        "policy": {"policy": [{"assertion": {
            "qname": {"namespace": SEC, "local": "Level"},
            "optional": True,
            "parameters": [{"name": "retries", "value": 3}, {"name": "label", "value": "x"}],
        }}]},
    })
    return doc


def _locations(node, location=()):
    """Every object and list in the document, with its location, in document order."""
    if isinstance(node, (dict, list)):
        yield location, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _locations(child, location + (key,))


def _label(location) -> str:
    out = ""
    for part in location:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out.lstrip(".") or "(root)"


def _value_changes(value):
    for other in OTHER_TYPES:
        if _json_type(other) != _json_type(value):
            yield f"type {json.dumps(other)}", other
    if isinstance(value, str):
        for token in TOKENS:
            if token != value:
                yield f"token {token!r}", token


def _mutations(doc):
    """(label, change) pairs; change(copy) applies the fault to a copy of doc."""
    for location, node in list(_locations(doc)):
        label = _label(location)

        def at(copy_doc, location=location):
            for part in location:
                copy_doc = copy_doc[part]
            return copy_doc

        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if isinstance(node, dict):
            for key in keys:
                yield f"{label}: drop {key}", lambda d, at=at, key=key: at(d).pop(key)
            yield f"{label}: add zzz", lambda d, at=at: at(d).__setitem__("zzz", 1)
        elif node:
            yield f"{label}: empty", lambda d, at=at: at(d).clear()
        for key in keys:
            for change, new in _value_changes(node[key]):
                yield (f"{label}: {key} {change}",
                       lambda d, at=at, key=key, new=new: at(d).__setitem__(key, copy.deepcopy(new)))


def cases():
    """(case id, document bytes) for every single-fault case, in a fixed order."""
    for base_name, base in (("fixture", fixture()), ("enriched", enriched_fixture())):
        for label, change in _mutations(base):
            doc = copy.deepcopy(base)
            change(doc)
            yield f"{base_name} {label}", json.dumps(doc).encode("utf-8")


def outcome(data: bytes):
    """[exception type, .path, message], or None when the document parses.

    The message is the exception text without its ``path: `` prefix.
    """
    from wspolicy import parse_model
    from wspolicy.errors import ModelSchemaError

    try:
        parse_model(data)
    except ModelSchemaError as exc:
        text = str(exc)
        return [type(exc).__name__, exc.path, text[len(exc.path) + 2:] if exc.path else text]
    except Exception as exc:  # recorded, so a new exception type shows up as a difference
        return [type(exc).__name__, None, str(exc)]
    return None


if __name__ == "__main__":
    lines = (f"{json.dumps(case_id)}: {json.dumps(outcome(data))}" for case_id, data in cases())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
