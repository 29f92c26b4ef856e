import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from wspolicy import (
    All,
    AssertionRef,
    ExactlyOne,
    Policy,
    emit_domain_xsd,
    policy_document,
    write_canonical,
)
import wspolicy
import wspolicy.emit
from wspolicy.cli import cli
from wspolicy.reader import MAX_POLICY_DEPTH

from corpus import (
    GOLDEN,
    SEC_NS,
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


def test_intersect_missing_file(runner, tmp_path):
    result = runner.invoke(cli, ["intersect", str(tmp_path / "a.xml"), str(tmp_path / "b.xml")])
    assert result.exit_code == 2
