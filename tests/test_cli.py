import codecs
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from wspolicy import (
    All,
    AssertionDecl,
    AssertionRef,
    DomainSchema,
    ExactlyOne,
    Policy,
    QName,
    SemanticAnnotation,
    emit_domain_xsd,
    policy_document,
    write_canonical,
)
import wspolicy
import wspolicy.emit
from wspolicy.cli import cli
from wspolicy.names import XMLNS_NS
from wspolicy.reader import MAX_POLICY_DEPTH

from corpus import (
    GOLDEN,
    ONTO,
    SEC_NS,
    acme,
    acme_domain,
    acme_requester_policy,
    conflicting_security_domain,
    deep_model,
    deep_policy,
    sp,
    travel_agency_bytes,
    travel_agency_json,
    travel_agency_model,
    wsdl_with_deep_documentation,
    wsdl_with_second_endpoint_policy,
)

FRAGMENT = "endpoint/TravelAgencyService/TravelAgencyEndpoint"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def model_path(tmp_path) -> Path:
    path = tmp_path / "travel_agency.json"
    path.write_bytes(travel_agency_bytes())
    return path


def write_policy(tmp_path, name, expr, hints=None) -> Path:
    path = tmp_path / name
    path.write_bytes(write_canonical(policy_document(expr, prefix_hints=hints or {})))
    return path


def generated_corpus(tmp_path, runner, model_path) -> Path:
    outdir = tmp_path / "out"
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(outdir)])
    assert result.exit_code == 0, result.output
    return outdir


# --- validate ----------------------------------------------------------------

def test_validate_corpus_ok(runner, model_path):
    result = runner.invoke(cli, ["validate", str(model_path)])
    assert result.exit_code == 0
    assert result.stderr == ""


def test_validate_dangling_reference(runner, tmp_path):
    doc = travel_agency_json()
    doc["services"][0]["endpoints"][0]["binding"] = "Nowhere"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(cli, ["validate", str(path)])
    assert result.exit_code == 1
    lines = [l for l in result.stderr.splitlines() if l.startswith("error")]
    assert len(lines) == 1
    assert "binding-unresolved" in lines[0]


def test_validate_missing_file(runner, tmp_path):
    result = runner.invoke(cli, ["validate", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_validate_schema_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"formatVersion": "1.0"}')
    result = runner.invoke(cli, ["validate", str(path)])
    assert result.exit_code == 1
    assert "model-schema" in result.stderr


# --- generate ----------------------------------------------------------------

def test_generate_writes_file_set(runner, model_path, tmp_path):
    outdir = generated_corpus(tmp_path, runner, model_path)
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["TravelAgency.wsdl", "ws-semanticsecuritypolicy.xsd"]
    result_again = runner.invoke(
        cli, ["generate", str(model_path), "--output-dir", str(outdir)]
    )
    assert result_again.exit_code == 0
    assert sorted(p.name for p in outdir.iterdir()) == names
    for name in names:
        assert (outdir / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_generate_prints_written_paths(runner, model_path, tmp_path):
    outdir = tmp_path / "gen"
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(outdir)])
    printed = result.stdout.splitlines()
    assert printed == [
        str(outdir / "TravelAgency.wsdl"),
        str(outdir / "ws-semanticsecuritypolicy.xsd"),
    ]


def test_generate_refuses_model_without_services(runner, tmp_path):
    doc = travel_agency_json()
    doc["services"] = []
    doc["attachments"] = []
    path = tmp_path / "no_services.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "never"
    result = runner.invoke(cli, ["generate", str(path), "--output-dir", str(outdir)])
    assert result.exit_code == 1
    assert "nothing-to-generate" in result.stderr
    assert not outdir.exists()


def test_generate_all_or_nothing_on_validation_errors(runner, tmp_path):
    doc = travel_agency_json()
    doc["bindings"][0]["interface"] = "Nowhere"
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    outdir = tmp_path / "never"
    result = runner.invoke(cli, ["generate", str(path), "--output-dir", str(outdir)])
    assert result.exit_code == 1
    assert not outdir.exists()


POLICY_FAULTS = {
    "assertion-undeclared": (
        lambda policy: policy[0]["assertion"]["qname"].update(local="Ghost"),
        f"policy references an assertion declared in no domain: {sp('Ghost')}",
    ),
    "policy-unsatisfiable": (
        lambda policy: policy.append({"exactlyOne": []}),
        "policy is unsatisfiable (no alternatives)",
    ),
}


def test_validate_and_generate_refuse_the_xmlns_namespace(runner, tmp_path):
    doc = travel_agency_json()
    doc["targetNamespace"] = XMLNS_NS
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    line = (f"error namespace-reserved targetNamespace: {XMLNS_NS} is reserved for "
            "namespace declarations; no prefix may be bound to it\n")
    validated = runner.invoke(cli, ["validate", str(path)])
    assert (validated.exit_code, validated.stderr) == (1, line)
    outdir = tmp_path / "never"
    generated = runner.invoke(cli, ["generate", str(path), "--output-dir", str(outdir)])
    assert (generated.exit_code, generated.stdout, generated.stderr) == (1, "", line)
    assert not outdir.exists()


def test_validate_and_generate_refuse_a_simple_type_namespace_that_is_no_uri(runner, tmp_path):
    doc = travel_agency_json()
    doc["domains"][0]["assertions"].append(
        {"name": "Level", "typeKind": "simple",
         "simpleType": {"namespace": "not a uri", "local": "string"}})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    line = ("error bad-uri domains[security].assertions[Level].simpleType: "
            "not an absolute URI: 'not a uri'\n")
    validated = runner.invoke(cli, ["validate", str(path)])
    assert (validated.exit_code, validated.stdout, validated.stderr) == (1, "", line)
    outdir = tmp_path / "never"
    generated = runner.invoke(cli, ["generate", str(path), "--output-dir", str(outdir)])
    assert (generated.exit_code, generated.stdout, generated.stderr) == (1, "", line)
    assert not outdir.exists()


def test_validate_and_generate_report_an_assertion_repeated_in_one_domain_once(runner, tmp_path):
    doc = travel_agency_json()
    doc["domains"][0]["assertions"].append({"name": "HashPassword", "typeKind": "empty"})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    line = ("error duplicate-name domains[security].assertions[HashPassword]: "
            "duplicate assertion name 'HashPassword'\n")
    validated = runner.invoke(cli, ["validate", str(path)])
    assert (validated.exit_code, validated.stdout, validated.stderr) == (1, "", line)
    outdir = tmp_path / "never"
    generated = runner.invoke(cli, ["generate", str(path), "--output-dir", str(outdir)])
    assert (generated.exit_code, generated.stdout, generated.stderr) == (1, "", line)
    assert not outdir.exists()


@pytest.mark.parametrize("code", sorted(POLICY_FAULTS))
def test_validate_and_generate_report_policy_faults(runner, tmp_path, code):
    break_policy, message = POLICY_FAULTS[code]
    doc = travel_agency_json()
    break_policy(doc["attachments"][0]["policy"]["policy"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    line = f"error {code} attachments[{FRAGMENT}]: {message}\n"
    validated = runner.invoke(cli, ["validate", str(path)])
    assert (validated.exit_code, validated.stdout, validated.stderr) == (1, "", line)
    outdir = tmp_path / "never"
    generated = runner.invoke(cli, ["generate", str(path), "--output-dir", str(outdir)])
    assert (generated.exit_code, generated.stdout, generated.stderr) == (1, "", line)
    assert not outdir.exists()


def test_generate_validates_once(runner, model_path, tmp_path, monkeypatch):
    calls = []
    for module in (wspolicy.cli, wspolicy.emit):
        def counted(model, validate=module.validate_model):
            calls.append(model)
            return validate(model)

        monkeypatch.setattr(module, "validate_model", counted)
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_generate_output_dir_that_is_a_file_exits_2(runner, model_path, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(blocker)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"cannot write {blocker}: ")
    assert result.stderr.count("\n") == 1
    assert blocker.read_text() == "not a directory"


def test_generate_target_that_is_a_directory_exits_2(runner, model_path, tmp_path):
    outdir = tmp_path / "gen"
    (outdir / "TravelAgency.wsdl").mkdir(parents=True)
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(outdir)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"cannot write {outdir / 'TravelAgency.wsdl'}: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("old_wsdl", [None, b"<old/>"])
def test_generate_writes_nothing_when_a_later_target_fails(runner, model_path, tmp_path,
                                                            old_wsdl):
    outdir = tmp_path / "gen"
    schema = outdir / "ws-semanticsecuritypolicy.xsd"
    schema.mkdir(parents=True)
    wsdl = outdir / "TravelAgency.wsdl"
    if old_wsdl is not None:
        wsdl.write_bytes(old_wsdl)
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(outdir)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"cannot write {schema}: [Errno 21] Is a directory: '{schema}'\n"
    if old_wsdl is None:
        assert set(outdir.iterdir()) == {schema}
    else:
        assert set(outdir.iterdir()) == {schema, wsdl}
        assert wsdl.read_bytes() == old_wsdl


def test_generate_removes_temporaries_when_a_write_fails(runner, model_path, tmp_path,
                                                        monkeypatch):
    outdir = tmp_path / "gen"
    real_open = os.open

    def full_disk(path, *args):
        if Path(path).name.startswith(".ws-semanticsecuritypolicy.xsd."):
            raise OSError(28, "No space left on device")
        return real_open(path, *args)

    monkeypatch.setattr(os, "open", full_disk)
    result = runner.invoke(cli, ["generate", str(model_path), "--output-dir", str(outdir)])
    assert result.exit_code == 2
    assert result.stdout == ""
    schema = outdir / "ws-semanticsecuritypolicy.xsd"
    assert result.stderr == f"cannot write {schema}: [Errno 28] No space left on device\n"
    assert list(outdir.iterdir()) == []


# --- normalize ---------------------------------------------------------------

def test_normalize_model_fragment_text(runner, model_path):
    result = runner.invoke(cli, ["normalize", f"{model_path}#{FRAGMENT}"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "{http://emi/ws-semanticsecuritypolicy.xsd}UsernameToken"
    assert lines[1:] == [
        "  {http://emi/ws-semanticsecuritypolicy.xsd}HashPassword, "
        "{http://emi/ws-semanticsecuritypolicy.xsd}WssUsernameToken10",
        "  {http://emi/ws-semanticsecuritypolicy.xsd}NoPassword, "
        "{http://emi/ws-semanticsecuritypolicy.xsd}WssUsernameToken10",
    ]


def test_normalize_empty_policy_file(runner, tmp_path):
    path = write_policy(tmp_path, "empty.xml", Policy())
    result = runner.invoke(cli, ["normalize", str(path)])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == ["(empty alternative)"]


def test_normalize_unsatisfiable_exits_3(runner, tmp_path):
    path = tmp_path / "unsat.xml"
    path.write_text('<wsp:Policy xmlns:wsp="http://www.w3.org/ns/ws-policy">'
                    "<wsp:ExactlyOne/></wsp:Policy>")
    result = runner.invoke(cli, ["normalize", str(path)])
    assert result.exit_code == 3
    assert result.stdout.splitlines() == ["UNSATISFIABLE (0 alternatives)"]


def test_normalize_xml_format(runner, model_path, tmp_path):
    result = runner.invoke(cli, ["normalize", f"{model_path}#{FRAGMENT}", "--format", "xml"])
    assert result.exit_code == 0
    assert result.stdout.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "<wsp:ExactlyOne>" in result.stdout
    from wspolicy import normalize as norm, parse_policy_element
    from corpus import endpoint_policy

    reparsed = parse_policy_element(result.stdout.encode())
    assert norm(reparsed) == norm(endpoint_policy())


def test_normalize_xml_output_of_an_xml_namespace_assertion_reads_back(runner, tmp_path):
    path = tmp_path / "p.xml"
    path.write_text('<wsp:Policy xmlns:wsp="http://www.w3.org/ns/ws-policy"><xml:Foo/></wsp:Policy>')
    first = runner.invoke(cli, ["normalize", str(path), "--format", "xml"])
    assert first.exit_code == 0
    assert 'xmlns:xml="http://www.w3.org/XML/1998/namespace"' in first.stdout
    path.write_text(first.stdout)
    again = runner.invoke(cli, ["normalize", str(path), "--format", "xml"])
    assert (again.exit_code, again.stdout) == (0, first.stdout)


def test_normalize_xml_refuses_to_bind_a_prefix_to_the_xmlns_namespace(runner, tmp_path):
    # normalize reads models without validate_model, so the refusal is the
    # writer's: no prefix may be bound to the xmlns namespace.
    path = tmp_path / "model.json"
    path.write_bytes(travel_agency_bytes().replace(SEC_NS.encode(), XMLNS_NS.encode()))
    spec = f"{path}#{FRAGMENT}"
    result = runner.invoke(cli, ["normalize", spec, "--format", "xml"])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", (
        f"{spec}: {XMLNS_NS} is reserved for namespace declarations; "
        "no prefix may be bound to it\n"))
    token = f"{{{XMLNS_NS}}}UsernameToken"
    text = runner.invoke(cli, ["normalize", spec])
    assert (text.exit_code, text.stdout.splitlines()[0]) == (0, token)
    both = runner.invoke(cli, ["intersect", spec, spec])
    assert (both.exit_code, both.stdout.splitlines()[0]) == (0, token)


def test_normalize_requires_fragment_for_models(runner, model_path):
    result = runner.invoke(cli, ["normalize", str(model_path)])
    assert result.exit_code == 2
    result = runner.invoke(cli, ["normalize", f"{model_path}#endpoint/Nope/Nope"])
    assert result.exit_code == 2


def test_normalize_refuses_second_policy_on_one_subject(runner, tmp_path):
    wsdl = tmp_path / "TravelAgency.wsdl"
    wsdl.write_bytes(wsdl_with_second_endpoint_policy())
    result = runner.invoke(cli, ["normalize", f"{wsdl}#{FRAGMENT}"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"{wsdl}: second wsp:Policy for subject '{FRAGMENT}'; pre-merge policies instead\n"
    )


# --- policy sources ----------------------------------------------------------

KINDS = "('binding', 'endpoint', 'interface', 'operation', 'service')"
UNSUPPORTED = "{http://www.w3.org/ns/ws-policy}PolicyReference"

# (source, exit code, stderr) for every outcome of loading a policy source;
# "@" stands for the directory holding the files ``source_files`` writes.
SOURCE_OUTCOMES = [
    ("@/model.json#" + FRAGMENT, 0, ""),
    ("@/policy.xml", 0, ""),
    ("@/TravelAgency.wsdl", 0, ""),
    ("@/TravelAgency.wsdl#" + FRAGMENT, 0, ""),
    ("@/missing.json", 2,
     "cannot read @/missing.json: [Errno 2] No such file or directory: '@/missing.json'"),
    ("@/syntax.json", 1,
     "error model-syntax document: Expecting property name enclosed in double quotes "
     "(line 1, column 2)"),
    ("@/schema.json", 1, "error model-schema missing required field 'modelName'"),
    # A byte order mark does not hide a model file: it fails as validate reports it.
    ("@/bom.json#" + FRAGMENT, 1,
     "error model-syntax document: Unexpected UTF-8 BOM (decode using utf-8-sig) "
     "(line 1, column 1)"),
    ("@/model.json", 2, "@/model.json: model sources need a '#kind/name...' fragment"),
    ("@/model.json#nope/x", 2,
     f"bad fragment 'nope/x': expected kind/name[/name] with kind in {KINDS}"),
    ("@/model.json#endpoint", 2,
     f"bad fragment 'endpoint': expected kind/name[/name] with kind in {KINDS}"),
    ("@/model.json#endpoint/Nope/Nope", 2,
     "@/model.json: no attachment for subject 'endpoint/Nope/Nope'"),
    ("@/model.json#binding/TravelAgencyBinding", 2,
     "@/model.json: no attachment for subject 'binding/TravelAgencyBinding'"),
    ("@/malformed.xml", 1, "@/malformed.xml: not well-formed (invalid token) (line 1, column 2)"),
    ("@/policy.xml#" + FRAGMENT, 2,
     "@/policy.xml: fragments only apply to model or WSDL sources"),
    ("@/construct.xml", 1, f"@/construct.xml: unsupported policy construct {UNSUPPORTED}"),
    ("@/other.xml", 1, "@/other.xml: unrecognized document root other"),
    ("@/TravelAgency.wsdl#service", 2,
     f"bad fragment 'service': expected kind/name[/name] with kind in {KINDS}"),
    ("@/TravelAgency.wsdl#endpoint/Nope/Nope", 2,
     "@/TravelAgency.wsdl: no attachment for subject 'endpoint/Nope/Nope'"),
    ("@/two.wsdl", 2,
     "@/two.wsdl: 2 policies found; pick one with a '#kind/name...' fragment"),
    ("@/two.wsdl#binding/TravelAgencyBinding", 0, ""),
    ("@/bare.wsdl", 2, "@/bare.wsdl: no policy found"),
    ("@/bare.wsdl#" + FRAGMENT, 2, f"@/bare.wsdl: no attachment for subject '{FRAGMENT}'"),
    ("@/construct.wsdl#" + FRAGMENT, 1,
     f"@/construct.wsdl: unsupported policy construct {UNSUPPORTED}"),
    ("@/second.wsdl#" + FRAGMENT, 1,
     f"@/second.wsdl: second wsp:Policy for subject '{FRAGMENT}'; pre-merge policies instead"),
    # An imported schema that is no domain schema fails under its own path.
    ("@/import-malformed.wsdl#" + FRAGMENT, 1,
     "@/malformed.xml: not well-formed (invalid token) (line 1, column 2)"),
    ("@/import-other.wsdl#" + FRAGMENT, 1, "@/other.xml: expected an xs:schema root, got other"),
    ("@/import-notns.wsdl#" + FRAGMENT, 1, "@/notns.xsd: domain schema has no targetNamespace"),
]


def source_files(directory: Path) -> None:
    """The files SOURCE_OUTCOMES names, written into ``directory``."""
    wsp = 'xmlns:wsp="http://www.w3.org/ns/ws-policy"'
    wsdl = (GOLDEN / "TravelAgency.wsdl").read_bytes()
    binding = b'type="http://www.w3.org/ns/wsdl/soap"/>'
    assert wsdl.count(binding) == 1
    files = {
        "model.json": travel_agency_bytes(),
        "syntax.json": b"{,}",
        "schema.json": b'{"formatVersion": "1.0"}',
        "bom.json": codecs.BOM_UTF8 + travel_agency_bytes(),
        "policy.xml": write_canonical(policy_document(Policy(AssertionRef(sp("Token"))))),
        "malformed.xml": b"<a<",
        "construct.xml": f"<wsp:Policy {wsp}><wsp:PolicyReference/></wsp:Policy>".encode(),
        "other.xml": b"<other/>",
        "TravelAgency.wsdl": wsdl,
        "two.wsdl": wsdl.replace(binding, binding[:-2] + b"><wsp:Policy/></wsdl:binding>"),
        "bare.wsdl": b'<wsdl:description xmlns:wsdl="http://www.w3.org/ns/wsdl"/>',
        "construct.wsdl": wsdl.replace(b"<wsp:All>", b"<wsp:All><wsp:PolicyReference/>", 1),
        "second.wsdl": wsdl_with_second_endpoint_policy(),
        "notns.xsd": b'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>',
    }
    location = b'schemaLocation="ws-semanticsecuritypolicy.xsd"'
    assert wsdl.count(location) == 1
    for suffix, schema_name in [("malformed", "malformed.xml"), ("other", "other.xml"),
                                ("notns", "notns.xsd")]:
        files[f"import-{suffix}.wsdl"] = wsdl.replace(
            location, b'schemaLocation="%s"' % schema_name.encode())
    for name, data in files.items():
        (directory / name).write_bytes(data)
    schema = "ws-semanticsecuritypolicy.xsd"
    (directory / schema).write_bytes((GOLDEN / schema).read_bytes())


@pytest.mark.parametrize("source, code, stderr", SOURCE_OUTCOMES)
def test_policy_source_outcomes(runner, tmp_path, source, code, stderr):
    source_files(tmp_path)
    result = runner.invoke(cli, ["normalize", source.replace("@", str(tmp_path))])
    assert result.exit_code == code
    assert result.stderr == (stderr.replace("@", str(tmp_path)) + "\n" if stderr else "")
    if code:
        assert result.stdout == ""


def test_bom_model_file_fails_alike_in_validate_and_normalize(runner, tmp_path):
    source_files(tmp_path)
    path = tmp_path / "bom.json"
    outcomes = {(result.exit_code, result.stdout, result.stderr) for result in (
        runner.invoke(cli, ["validate", str(path)]),
        runner.invoke(cli, ["normalize", f"{path}#{FRAGMENT}"]),
    )}
    assert outcomes == {(1, "", "error model-syntax document: Unexpected UTF-8 BOM "
                                "(decode using utf-8-sig) (line 1, column 1)\n")}


# (--vocab file, exit code, stderr): every schema loads as an imported one does.
VOCAB_OUTCOMES = [
    ("@/malformed.xml", 1, "@/malformed.xml: not well-formed (invalid token) (line 1, column 2)"),
    ("@/other.xml", 1, "@/other.xml: expected an xs:schema root, got other"),
    ("@/notns.xsd", 1, "@/notns.xsd: domain schema has no targetNamespace"),
    ("@/missing.xsd", 2,
     "cannot read @/missing.xsd: [Errno 2] No such file or directory: '@/missing.xsd'"),
]


@pytest.mark.parametrize("vocab, code, stderr", VOCAB_OUTCOMES)
def test_vocab_schema_outcomes(runner, tmp_path, vocab, code, stderr):
    source_files(tmp_path)
    spec = f"{tmp_path}/model.json#{FRAGMENT}"
    result = runner.invoke(cli, ["intersect", spec, spec, "--vocab",
                                 vocab.replace("@", str(tmp_path))])
    assert (result.exit_code, result.stdout, result.stderr) == (
        code, "", stderr.replace("@", str(tmp_path)) + "\n")


def test_vocab_schema_with_an_undeclared_type_prefix(runner, tmp_path):
    source_files(tmp_path)
    vocab = tmp_path / "undeclared.xsd"
    vocab.write_bytes(b'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" '
                      b'targetNamespace="http://example.org/u">'
                      b'<xs:element name="A" type="zz:T"/></xs:schema>')
    spec = f"{tmp_path}/model.json#{FRAGMENT}"
    result = runner.invoke(cli, ["intersect", spec, spec, "--vocab", str(vocab)])
    assert (result.exit_code, result.stdout, result.stderr) == (
        1, "", f"{vocab}: undeclared prefix 'zz' in QName 'zz:T'\n")


def test_each_input_file_is_parsed_once(runner, model_path, tmp_path, monkeypatch):
    wsdl, requester, vocab = alias_setup(runner, model_path, tmp_path)
    schema = wsdl.parent / "ws-semanticsecuritypolicy.xsd"
    names = {path.read_bytes(): path.name for path in (wsdl, schema, requester, vocab)}
    parsed = []
    for module in (wspolicy.xmltree, wspolicy.reader):
        def counted(data, parse=module.parse_xml):
            parsed.append(names.get(data, "other"))
            return parse(data)

        monkeypatch.setattr(module, "parse_xml", counted)

    def parses(*args) -> Counter:
        parsed.clear()
        result = runner.invoke(cli, [str(arg) for arg in args])
        assert result.exit_code == 0, result.output
        return Counter(parsed)

    assert parses("normalize", f"{wsdl}#{FRAGMENT}") == Counter([wsdl.name, schema.name])
    assert parses("intersect", f"{wsdl}#{FRAGMENT}", requester, "--mode", "semantic",
                  "--vocab", vocab) == Counter(names.values())


# wsp:Optional is an xs:boolean, whose whitespace facet is "collapse": XML's
# four whitespace characters around the value are ignored, and no others.
OPTIONAL_VALUES = [
    (" true ", 0, "(empty alternative)\n{http://x/}A\n", ""),
    ("&#9;1&#10;", 0, "(empty alternative)\n{http://x/}A\n", ""),
    ("&#13;false ", 0, "{http://x/}A\n", ""),
    (" 0", 0, "{http://x/}A\n", ""),
    ("&#160;true", 1, "", "@: bad wsp:Optional value '\\xa0true' on {http://x/}A\n"),
]


@pytest.mark.parametrize("value, code, stdout, stderr", OPTIONAL_VALUES)
def test_optional_value_collapses_xml_whitespace(runner, tmp_path, value, code, stdout, stderr):
    path = tmp_path / "optional.xml"
    path.write_text('<wsp:Policy xmlns:wsp="http://www.w3.org/ns/ws-policy" '
                    f'xmlns:x="http://x/"><x:A wsp:Optional="{value}"/></wsp:Policy>')
    result = runner.invoke(cli, ["normalize", str(path)])
    assert (result.exit_code, result.stdout, result.stderr) == (
        code, stdout, stderr.replace("@", str(path)))


def test_deep_policy_exits_1_without_traceback(tmp_path):
    # Run in a child process, as a user would: a RecursionError would print a
    # traceback on stderr, which CliRunner hides.
    env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1])}
    deep = tmp_path / "deep.xml"
    deep.write_bytes(deep_policy(600))
    at_cap = tmp_path / "at_cap.xml"
    at_cap.write_bytes(deep_policy(MAX_POLICY_DEPTH))
    for args, code in (
        (["normalize", str(deep)], 1),
        (["intersect", str(at_cap), str(deep)], 1),
        (["normalize", str(at_cap)], 0),
    ):
        done = subprocess.run([sys.executable, "-m", "wspolicy.cli"] + args,
                              capture_output=True, text=True, env=env)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        if code == 1:
            assert done.stderr.startswith(f"{deep}: policy nested deeper than")


def test_intersect_nested_chain_at_cap_finishes(tmp_path):
    # 50 nested policies, the reader's cap: without the per-call memo of
    # nested intersections this took 2^50 steps and never finished.
    env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1])}
    nest = tmp_path / "nest.xml"
    nest.write_bytes(deep_policy(MAX_POLICY_DEPTH, nested_policies=True))
    for mode in ("strict", "semantic"):
        done = subprocess.run([sys.executable, "-m", "wspolicy.cli", "intersect", "--mode", mode,
                               str(nest), str(nest)],
                              capture_output=True, text=True, env=env, timeout=20)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        assert done.stdout.startswith(f"{sp('A')}\n  {sp('A')}\n")


def test_deep_wsdl_exits_without_traceback(tmp_path):
    # WSDL content outside policies has no depth cap; walking it must not
    # recurse once per level.
    env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1])}
    for levels, stray_policy, code in ((1000, False, 0), (5000, False, 0), (1000, True, 1)):
        wsdl = tmp_path / f"deep{levels}{stray_policy}.wsdl"
        wsdl.write_bytes(wsdl_with_deep_documentation(levels, stray_policy))
        done = subprocess.run([sys.executable, "-m", "wspolicy.cli", "normalize",
                               f"{wsdl}#{FRAGMENT}"], capture_output=True, text=True, env=env)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        if stray_policy:
            assert done.stderr == (
                f"{wsdl}: wsp:Policy attached to an element that is not a policy subject\n")
        else:
            assert done.stdout.startswith(str(sp("UsernameToken")))


def test_deep_model_exits_1_without_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1])}
    deep = tmp_path / "deep.json"
    deep.write_bytes(deep_model(600))
    doc = travel_agency_json()
    doc["domains"][0]["assertions"][0]["annotation"]["modelReference"] = "@value@"
    deep_value = tmp_path / "deep_value.json"
    deep_value.write_text(
        json.dumps(doc).replace('"@value@"', "[" * 3000 + '"http://x/"' + "]" * 3000)
    )
    past_cap = tmp_path / "past_cap.json"
    past_cap.write_bytes(deep_model(MAX_POLICY_DEPTH + 1))
    for args in (
        ["validate", str(deep)],
        ["normalize", f"{deep}#{FRAGMENT}"],
        ["generate", str(deep_value), "--output-dir", str(tmp_path / "out")],
        ["validate", str(deep_value)],
        ["normalize", f"{past_cap}#{FRAGMENT}"],
    ):
        done = subprocess.run([sys.executable, "-m", "wspolicy.cli"] + args,
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        assert done.stderr.startswith("error model-s"), done.stderr
    assert done.stderr.endswith(f"policy nested deeper than {MAX_POLICY_DEPTH} levels\n")


@pytest.mark.parametrize("where, value", [
    ("parameter", "a\u0001b"),
    ("parameter", "a\uffffb"),
    ("parameter", "a\ud800b"),
    ("address", "http://emi/\ud800"),
])
def test_non_xml_characters_exit_1_without_traceback(tmp_path, where, value):
    # No escape can carry these characters, so the model is refused as it is
    # read.  Once they made ill-formed output (exit 0) or a UnicodeEncodeError
    # traceback; run in child processes, where a traceback would show.
    doc = travel_agency_json()
    if where == "parameter":
        assertion = doc["attachments"][0]["policy"]["policy"][0]["assertion"]
        assertion["parameters"] = [{"name": "level", "value": value}]
        line = ("error model-schema attachments[0].policy.policy[0].assertion.parameters[0]"
                f".value: character U+{ord(value[1]):04X} is not allowed in XML 1.0\n")
    else:
        doc["services"][0]["endpoints"][0]["address"] = value
        line = ("error model-schema services[0].endpoints[0].address: "
                f"not an absolute URI: {value!r}\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1])}
    for args in (
        ["generate", str(model), "--output-dir", str(outdir)],
        ["validate", str(model)],
        ["normalize", f"{model}#{FRAGMENT}", "--format", "xml"],
    ):
        done = subprocess.run([sys.executable, "-m", "wspolicy.cli"] + args,
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", line), args
    assert not outdir.exists()


def test_generate_matches_golden_under_two_hash_seeds(model_path, tmp_path):
    # The writer memoizes names in dicts keyed by hashed QNames; no hash
    # order may reach the bytes.
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1]),
               "PYTHONHASHSEED": seed}
        outdir = tmp_path / f"out{seed}"
        done = subprocess.run(
            [sys.executable, "-m", "wspolicy.cli", "generate", str(model_path),
             "--output-dir", str(outdir)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in outdir.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())
        for golden in GOLDEN.iterdir():
            assert (outdir / golden.name).read_bytes() == golden.read_bytes(), (seed, golden.name)


def test_undeclared_assertion_error_names_the_least_qname(tmp_path):
    # The error once named whichever undeclared QName a set yielded first,
    # which follows the hash seed; run under two seeds in child processes.
    doc = travel_agency_json()
    doc["attachments"][0]["policy"]["policy"] += [
        {"assertion": {"qname": {"namespace": SEC_NS, "local": local}}}
        for local in ("Gamma", "Alpha", "Beta")
    ]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1]),
               "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-m", "wspolicy.cli", "generate", str(model),
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.endswith(f"declared in no domain: {sp('Alpha')}\n"), done.stderr


# --- intersect ---------------------------------------------------------------

def requester_hash_policy() -> Policy:
    return Policy(
        AssertionRef(
            sp("UsernameToken"),
            nested=Policy(
                ExactlyOne(
                    All(
                        AssertionRef(sp("HashPassword")),
                        AssertionRef(sp("WssUsernameToken10")),
                    )
                )
            ),
        )
    )


def test_intersect_wsdl_with_requester_strict(runner, model_path, tmp_path):
    outdir = generated_corpus(tmp_path, runner, model_path)
    wsdl = outdir / "TravelAgency.wsdl"
    requester = write_policy(tmp_path, "requester.xml", requester_hash_policy(),
                             hints={sp("x").namespace: "sp"})
    result = runner.invoke(cli, ["intersect", str(wsdl), str(requester)])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert len([l for l in lines if not l.startswith(" ")]) == 1  # one alternative


def test_intersect_with_unsatisfiable_is_empty(runner, model_path, tmp_path):
    outdir = generated_corpus(tmp_path, runner, model_path)
    wsdl = outdir / "TravelAgency.wsdl"
    unsat = tmp_path / "unsat.xml"
    unsat.write_text('<wsp:Policy xmlns:wsp="http://www.w3.org/ns/ws-policy">'
                     "<wsp:ExactlyOne/></wsp:Policy>")
    result = runner.invoke(cli, ["intersect", str(wsdl), str(unsat)])
    assert result.exit_code == 3
    assert result.stdout.splitlines() == ["EMPTY (0 alternatives)"]


def alias_setup(runner, model_path, tmp_path):
    outdir = generated_corpus(tmp_path, runner, model_path)
    wsdl = outdir / "TravelAgency.wsdl"
    requester = write_policy(
        tmp_path, "alias_requester.xml", acme_requester_policy(),
        hints={acme_domain().target_namespace: "acme"},
    )
    vocab = tmp_path / "acme-security.xsd"
    vocab.write_bytes(write_canonical(emit_domain_xsd(acme_domain())))
    return wsdl, requester, vocab


def test_intersect_alias_strict_empty_semantic_matches(runner, model_path, tmp_path):
    wsdl, requester, vocab = alias_setup(runner, model_path, tmp_path)

    strict = runner.invoke(cli, ["intersect", str(wsdl), str(requester)])
    assert strict.exit_code == 3

    semantic = runner.invoke(
        cli,
        ["intersect", str(wsdl), str(requester), "--mode", "semantic",
         "--vocab", str(vocab)],
    )
    assert semantic.exit_code == 0, semantic.output
    assert "{http://example.org/acme-security.xsd}UserToken" in semantic.stdout


def test_intersect_semantic_without_vocab_fails(runner, model_path, tmp_path):
    wsdl, requester, _vocab = alias_setup(runner, model_path, tmp_path)
    result = runner.invoke(
        cli, ["intersect", str(wsdl), str(requester), "--mode", "semantic"]
    )
    assert result.exit_code == 2
    assert "vocabulary" in result.stderr


def test_intersect_explain_semantic(runner, model_path, tmp_path):
    wsdl, requester, vocab = alias_setup(runner, model_path, tmp_path)
    result = runner.invoke(
        cli,
        ["intersect", str(wsdl), str(requester), "--mode", "semantic",
         "--vocab", str(vocab), "--explain"],
    )
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert any(l.startswith("pair: ") for l in lines)
    matches = [l for l in lines if l.startswith("match: ")]
    assert any("via http://example.org/sec-onto#UsernameToken" in l for l in matches)


def test_intersect_explain_semantic_under_two_hash_seeds(runner, model_path, tmp_path):
    # Semantic matching walks hash-ordered QName sets; no hash order may reach
    # the output.  Run under two seeds in child processes.
    wsdl, requester, vocab = alias_setup(runner, model_path, tmp_path)
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(wspolicy.__file__).parents[1]),
               "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-m", "wspolicy.cli", "intersect", str(wsdl), str(requester),
             "--mode", "semantic", "--vocab", str(vocab), "--explain"],
            capture_output=True, env=env, timeout=60,
        )
        runs.append((done.returncode, done.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and b"match: " in runs[0][1], runs[0]


def test_intersect_explain_strict_prints_pairs_in_nested_loop_order(runner, tmp_path):
    # Optional UsernameToken (nested NoPassword or HashPassword) and optional
    # WssUsernameToken10 against three choices; the nested forms differ, so
    # the UsernameToken pair is decided by their intersection.
    provider = write_policy(tmp_path, "provider.xml", Policy(
        AssertionRef(sp("UsernameToken"), optional=True, nested=Policy(ExactlyOne(
            All(AssertionRef(sp("NoPassword"))), All(AssertionRef(sp("HashPassword")))))),
        AssertionRef(sp("WssUsernameToken10"), optional=True),
    ))
    requester = write_policy(tmp_path, "requester.xml", Policy(ExactlyOne(
        All(AssertionRef(sp("UsernameToken"), nested=Policy(AssertionRef(sp("HashPassword"))))),
        All(AssertionRef(sp("WssUsernameToken10"))),
        All(),
    )))
    result = runner.invoke(cli, ["intersect", str(provider), str(requester), "--explain"])
    assert result.exit_code == 0, result.output
    token, wss = sp("UsernameToken"), sp("WssUsernameToken10")
    assert result.stdout == "".join(line + "\n" for line in [
        "pair: (empty alternative) ~ (empty alternative)",
        f"pair: {token} ~ {token}",
        f"pair: {wss} ~ {wss}",
        "(empty alternative)",
        f"{token}, {token}",
        f"  {sp('HashPassword')}",
        f"  {sp('HashPassword')}",
        f"  {sp('NoPassword')}",
        f"{wss}",
    ])


def test_intersect_explain_semantic_prints_every_line(runner, model_path, tmp_path):
    wsdl, requester, vocab = alias_setup(runner, model_path, tmp_path)
    result = runner.invoke(cli, ["intersect", str(wsdl), str(requester), "--mode", "semantic",
                                 "--vocab", str(vocab), "--explain"])
    token, user = sp("UsernameToken"), acme("UserToken")
    assert (result.exit_code, result.stdout) == (0, "".join(line + "\n" for line in [
        f"pair: {token} ~ {user}",
        f"match: {token} ~ {user} via {ONTO}UsernameToken",
        f"{token}, {user}",
        f"  {sp('HashPassword')}, {sp('WssUsernameToken10')}",
        f"  {sp('NoPassword')}, {sp('WssUsernameToken10')}",
        f"  {acme('HashedPwd')}, {acme('Wss10Token')}",
    ]))


EXPLAIN_NS = "http://example.org/explain"


def ex(local: str) -> QName:
    return QName(EXPLAIN_NS, local)


def concept_sources(tmp_path, concepts: dict, left, right) -> list[str]:
    """A --vocab schema declaring each name of ``concepts`` with its concepts'
    URIs, and the policies ``left`` and ``right`` over those names."""
    domain = DomainSchema("explain", EXPLAIN_NS, "ex", [
        AssertionDecl(name, "empty", annotation=SemanticAnnotation(tuple(ONTO + c for c in cs)))
        for name, cs in concepts.items()])
    vocab = tmp_path / "explain.xsd"
    vocab.write_bytes(write_canonical(emit_domain_xsd(domain)))
    hints = {EXPLAIN_NS: "ex"}
    return [str(write_policy(tmp_path, "left.xml", left, hints)),
            str(write_policy(tmp_path, "right.xml", right, hints)), "--vocab", str(vocab)]


def crossed_sources(tmp_path) -> list[str]:
    # A1 shares two concepts with B2 and A2 one with B1: in the pair, the
    # matches cross, and A1's names the least URI both declare.
    concepts = {"A1": ("Zeta", "Alpha"), "A2": ("Mid",), "B1": ("Mid",), "B2": ("Alpha", "Zeta")}
    return concept_sources(tmp_path, concepts, Policy(AssertionRef(ex("A1")), AssertionRef(ex("A2"))),
                           Policy(AssertionRef(ex("B1")), AssertionRef(ex("B2"))))


def test_intersect_explain_prints_matches_left_instance_outermost(runner, tmp_path):
    result = runner.invoke(cli, ["intersect", *crossed_sources(tmp_path), "--mode", "semantic",
                                 "--explain"])
    a1, a2, b1, b2 = map(ex, ("A1", "A2", "B1", "B2"))
    assert (result.exit_code, result.stdout) == (0, "".join(line + "\n" for line in [
        f"pair: {a1}, {a2} ~ {b1}, {b2}",
        f"match: {a1} ~ {b2} via {ONTO}Alpha",
        f"match: {a2} ~ {b1} via {ONTO}Mid",
        f"{a1}, {a2}, {b1}, {b2}",
    ]))


def test_intersect_explain_builds_one_join_beside_the_result(runner, model_path, tmp_path,
                                                              monkeypatch):
    # One join computes the result, one more finds the pairs and decides
    # every match: none per instance pair.
    built = []
    init = wspolicy.algebra._Join.__init__

    def counted(join, *args):
        built.append(join)
        init(join, *args)

    monkeypatch.setattr(wspolicy.algebra._Join, "__init__", counted)
    wsdl, requester, vocab = alias_setup(runner, model_path, tmp_path)
    alias = [str(wsdl), str(requester), "--vocab", str(vocab)]
    for args in (alias, crossed_sources(tmp_path)):
        built.clear()
        result = runner.invoke(cli, ["intersect", *args, "--mode", "semantic", "--explain"])
        assert result.exit_code == 0, result.output
        assert "match: " in result.stdout
        assert len(built) == 2


def test_intersect_explain_omits_a_shared_uri_whose_nested_policies_differ(runner, tmp_path):
    # A, A2, B and B2 share one concept.  A and B2 nest X, A2 and B nest Y:
    # A's partner is B2 and B's is A2, but A and B do not match.
    concepts = {"A": ("Token",), "A2": ("Token",), "B": ("Token",), "B2": ("Token",),
                "X": ("Hashed",), "Y": ("Plain",)}

    def ref(name, nested):
        return AssertionRef(ex(name), nested=Policy(AssertionRef(ex(nested))))

    args = concept_sources(tmp_path, concepts, Policy(ref("A", "X"), ref("A2", "Y")),
                           Policy(ref("B", "Y"), ref("B2", "X")))
    result = runner.invoke(cli, ["intersect", *args, "--mode", "semantic", "--explain"])
    a, a2, b, b2, x, y = map(ex, ("A", "A2", "B", "B2", "X", "Y"))
    assert (result.exit_code, result.stdout) == (0, "".join(line + "\n" for line in [
        f"pair: {a}, {a2} ~ {b}, {b2}",
        f"match: {a} ~ {b2} via {ONTO}Token",
        f"match: {a2} ~ {b} via {ONTO}Token",
        f"{a}, {a2}, {b}, {b2}",
        f"  {x}",
        f"  {y}",
        f"  {y}",
        f"  {x}",
    ]))


def test_intersect_explain_strict_prints_no_match_for_a_shared_uri(runner, tmp_path):
    both = Policy(AssertionRef(ex("A")), AssertionRef(ex("B")))
    args = concept_sources(tmp_path, {"A": ("Token",), "B": ("Token",)}, both, both)
    a, b = ex("A"), ex("B")
    strict = runner.invoke(cli, ["intersect", *args, "--explain"])
    assert (strict.exit_code, strict.stdout) == (0, f"pair: {a}, {b} ~ {a}, {b}\n{a}, {b}\n")
    semantic = runner.invoke(cli, ["intersect", *args, "--mode", "semantic", "--explain"])
    assert [l for l in semantic.stdout.splitlines() if l.startswith("match: ")] == [
        f"match: {a} ~ {b} via {ONTO}Token", f"match: {b} ~ {a} via {ONTO}Token"]


def test_semantic_intersect_of_sources_sharing_no_uri(runner, tmp_path):
    # HashedPwd and Wss10Token are declared with different concepts, so the two
    # sources share no match key: only their empty alternatives can pair.
    vocab = tmp_path / "acme-security.xsd"
    vocab.write_bytes(write_canonical(emit_domain_xsd(acme_domain())))
    hints = {acme_domain().target_namespace: "acme"}
    for optional, code, stdout in ((False, 3, ["EMPTY (0 alternatives)"]),
                                   (True, 0, ["(empty alternative)"])):
        left, right = (write_policy(tmp_path, f"{name}.xml", Policy(
            AssertionRef(acme(name), optional=optional)), hints=hints)
            for name in ("HashedPwd", "Wss10Token"))
        args = ["intersect", str(left), str(right), "--mode", "semantic", "--vocab", str(vocab)]
        result = runner.invoke(cli, args)
        assert (result.exit_code, result.stdout.splitlines()) == (code, stdout), result.output
        explained = runner.invoke(cli, args + ["--explain"])
        pairs = [l for l in explained.stdout.splitlines() if l.startswith("pair: ")]
        assert explained.exit_code == code
        assert pairs == (["pair: (empty alternative) ~ (empty alternative)"] if optional else [])


def test_intersect_model_fragment_sources(runner, model_path):
    spec = f"{model_path}#{FRAGMENT}"
    result = runner.invoke(cli, ["intersect", spec, spec])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == (
        "{http://emi/ws-semanticsecuritypolicy.xsd}UsernameToken"
    )


def test_intersect_vocabulary_repeat_accepted_conflict_refused(runner, model_path, tmp_path):
    spec = f"{model_path}#{FRAGMENT}"
    (domain,) = travel_agency_model().domains
    same = tmp_path / "same.xsd"
    same.write_bytes(write_canonical(emit_domain_xsd(domain)))
    result = runner.invoke(cli, ["intersect", spec, spec, "--vocab", str(same)])
    assert result.exit_code == 0, result.output

    conflict = tmp_path / "conflict.xsd"
    conflict.write_bytes(write_canonical(emit_domain_xsd(conflicting_security_domain())))
    result = runner.invoke(cli, ["intersect", spec, spec, "--vocab", str(conflict)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"conflicting declarations for {sp('UsernameToken')}\n"


def test_malformed_xml_reports_its_position_once(runner, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<a<")
    result = runner.invoke(cli, ["normalize", str(bad)])
    assert result.exit_code == 1
    assert result.stderr == f"{bad}: not well-formed (invalid token) (line 1, column 2)\n"


def test_unreadable_companion_schema_exits_2(runner, model_path, tmp_path, monkeypatch):
    outdir = generated_corpus(tmp_path, runner, model_path)
    schema = outdir / "ws-semanticsecuritypolicy.xsd"
    read_bytes = Path.read_bytes

    def refuse_schema(path):
        if path == schema:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse_schema)
    result = runner.invoke(cli, ["normalize", str(outdir / "TravelAgency.wsdl") + "#" + FRAGMENT])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"cannot read {schema}: [Errno 13] Permission denied: '{schema}'\n"


def test_intersect_missing_file(runner, tmp_path):
    result = runner.invoke(cli, ["intersect", str(tmp_path / "a.xml"), str(tmp_path / "b.xml")])
    assert result.exit_code == 2
