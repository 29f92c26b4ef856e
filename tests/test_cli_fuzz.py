"""A seeded fuzz of every CLI command over mutated inputs.

Each input the CLI reads (a model, a generated WSDL and its companion XSD, a
wsp:Policy file and a ``--vocab`` XSD) is mutated a fixed number of times
with a plain seeded ``random.Random``, and each mutation is run in process
through every command that reads it.  Whatever the bytes, each run must end
in a documented exit code with no exception other than ``SystemExit`` and no
traceback.
"""
from __future__ import annotations

import random

from click.testing import CliRunner

from wspolicy import emit_domain_xsd, policy_document, write_canonical
from wspolicy.cli import cli

from corpus import GOLDEN, acme_domain, acme_requester_policy, travel_agency_bytes

FRAGMENT = "endpoint/TravelAgencyService/TravelAgencyEndpoint"
SCHEMA = "ws-semanticsecuritypolicy.xsd"
MUTATIONS_PER_INPUT = 120

MARKUP = (b"<", b">", b"</x>", b"<x>", b"<wsp:Policy>", b"<wsp:ExactlyOne/>", b"<wsp:All>",
          b"<wsp:Optional/>", b' xmlns:a="b"', b' wsp:Optional="true"', b"&amp;", b"&bogus;",
          b"<![CDATA[x]]>", b"<?pi x?>", b"<!-- c -->", b"<!DOCTYPE x>")
PUNCTUATION = (b"{", b"}", b"[", b"]", b",", b":", b'"', b"null", b"true", b"1e999", b"-0",
               b"[" * 40, b'{"a": ')
NON_UTF8 = (b"\xff", b"\xc3", b"\xc3(", b"\xed\xa0\x80", b"\x80\x80", b"\xfe\xff", b"\x00")


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One random change to ``data``: byte flips, a truncation, a duplicated
    or deleted span, inserted markup or JSON punctuation, or non-UTF-8 bytes."""
    i = rng.randrange(len(data) + 1)
    j = min(len(data), i + rng.randint(1, 64))
    kind = rng.randrange(7)
    if kind == 0:
        out = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == 1:
        return data[:i]
    if kind == 2:
        return data[:j] + data[i:]
    if kind == 3:
        return data[:i] + data[j:]
    inserted = rng.choice((MARKUP, PUNCTUATION, NON_UTF8)[kind - 4])
    return data[:i] + inserted + data[i:]


def inputs() -> dict[str, bytes]:
    return {
        "model.json": travel_agency_bytes(),
        "TravelAgency.wsdl": (GOLDEN / "TravelAgency.wsdl").read_bytes(),
        SCHEMA: (GOLDEN / SCHEMA).read_bytes(),
        "policy.xml": write_canonical(policy_document(
            acme_requester_policy(), prefix_hints={acme_domain().target_namespace: "acme"})),
        "vocab.xsd": write_canonical(emit_domain_xsd(acme_domain())),
    }


def commands(d: str) -> dict[str, list[list[str]]]:
    """The runs that read each input, by input name; ``d`` is their directory."""
    model, policy = f"{d}/model.json#{FRAGMENT}", f"{d}/policy.xml"
    wsdl = f"{d}/TravelAgency.wsdl"
    semantic = ["--mode", "semantic", "--explain", "--vocab", f"{d}/vocab.xsd"]
    return {
        "model.json": [
            ["validate", f"{d}/model.json"],
            ["generate", f"{d}/model.json", "--output-dir", f"{d}/out"],
            ["normalize", model],
            ["normalize", model, "--format", "xml"],
            ["intersect", model, policy],
            ["intersect", model, policy, *semantic],
        ],
        "TravelAgency.wsdl": [
            ["normalize", wsdl],
            ["normalize", f"{wsdl}#{FRAGMENT}", "--format", "xml"],
            ["intersect", wsdl, policy],
            ["intersect", f"{wsdl}#{FRAGMENT}", policy, *semantic],
        ],
        SCHEMA: [
            ["normalize", wsdl],
            ["intersect", wsdl, policy, *semantic],
        ],
        "policy.xml": [
            ["normalize", policy],
            ["normalize", policy, "--format", "xml"],
            ["intersect", model, policy],
            ["intersect", model, policy, *semantic],
        ],
        "vocab.xsd": [
            ["intersect", model, policy, *semantic],
            ["intersect", wsdl, policy, "--mode", "semantic", "--vocab", f"{d}/vocab.xsd"],
        ],
    }


def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(0xF022)
    runner = CliRunner()
    originals = inputs()
    for name, data in originals.items():
        (tmp_path / name).write_bytes(data)
    runs = commands(str(tmp_path))
    codes: set[int] = set()
    for name, data in originals.items():
        for _ in range(MUTATIONS_PER_INPUT):
            mutated = mutate(rng, data)
            (tmp_path / name).write_bytes(mutated)
            for args in runs[name]:
                result = runner.invoke(cli, args)
                case = (name, mutated, args)
                assert result.exit_code in (0, 1, 2, 3), case
                assert result.exception is None or isinstance(result.exception, SystemExit), (
                    case, result.exception)
                assert "Traceback" not in result.output, case
                codes.add(result.exit_code)
        (tmp_path / name).write_bytes(data)
    assert codes == {0, 1, 2, 3}
