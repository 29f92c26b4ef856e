"""Command-line front end tying ingestion, validation, generation and the
policy algebra together.

Exit codes are a contract: 0 success (non-empty result), 1 validation or
content failure, 2 I/O or vocabulary resolution failure, 3 empty or
unsatisfiable result.  Standard output is one record per line with stable
ordering; diagnostics go to standard error.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .algebra import (
    MatchMode,
    NormalForm,
    PolicyExpr,
    alternatives_compatible,
    assertions_compatible,
    denormalize,
    intersect as intersect_forms,
    normalize,
    semantic_match_uris,
)
from .emit import emit_wsdl, policy_document
from .errors import (
    GenerationError,
    ModelSchemaError,
    ModelSyntaxError,
    PolicyXmlError,
    VocabularyError,
    XmlParseError,
)
from .model import (
    DomainSchema,
    ServiceModel,
    SubjectRef,
    SUBJECT_KINDS,
    assertion_vocabulary,
    validate_model,
)
from .modelfile import parse_model
from .names import QName, WSDL_NS, WSP_NS, XS_NS
from .reader import parse_domain_xsd, parse_policy_element, parse_wsdl
from .xmltree import parse_xml, write_canonical

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_EMPTY = 3


def _die(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _read_bytes(path: str, exit_code: int = EXIT_IO) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _die(exit_code, f"cannot read {path}: {exc}")


def _parse_model_or_die(data: bytes) -> ServiceModel:
    try:
        return parse_model(data)
    except ModelSyntaxError as exc:
        _die(EXIT_INVALID, f"error model-syntax document: {exc}")
    except ModelSchemaError as exc:
        _die(EXIT_INVALID, f"error model-schema {exc}")


def render_normal_form(nf: NormalForm) -> list[str]:
    """One alternative per line as sorted QName lists, nested forms indented."""
    lines: list[str] = []

    def walk(form: NormalForm, indent: str):
        for alt in form.alternatives:
            if not alt:
                lines.append(indent + "(empty alternative)")
                continue
            lines.append(indent + ", ".join(str(i.qname) for i in alt))
            for instance in alt:
                if instance.nested is not None:
                    walk(instance.nested, indent + "  ")

    walk(nf, "")
    return lines


def _alt_label(alt) -> str:
    return ", ".join(str(i.qname) for i in alt) if alt else "(empty alternative)"


def _split_source(spec: str) -> tuple[str, str | None]:
    path, sep, frag = spec.partition("#")
    return path, (frag if sep else None)


def _subject_from_fragment(frag: str) -> SubjectRef:
    parts = [p for p in frag.split("/") if p]
    if len(parts) < 2 or parts[0] not in SUBJECT_KINDS:
        _die(EXIT_IO, f"bad fragment {frag!r}: expected kind/name[/name] with kind "
                      f"in {SUBJECT_KINDS}")
    return SubjectRef(parts[0], tuple(parts[1:]))


def _companion_schemas(wsdl_path: str, doc) -> list[bytes]:
    """Schemas referenced by xs:import, resolved relative to the WSDL file."""
    base = Path(wsdl_path).parent
    schemas: list[bytes] = []
    for types in doc.root.find_all(QName(WSDL_NS, "types")):
        for item in types.find_all(QName(XS_NS, "import")):
            location = item.attr("schemaLocation")
            if not location:
                continue
            candidate = base / location
            if candidate.is_file():
                schemas.append(candidate.read_bytes())
    return schemas


def _load_policy_source(spec: str) -> tuple[PolicyExpr, list[DomainSchema], dict[str, str]]:
    """A policy from 'model.json#kind/name...', a wsp:Policy file, or a WSDL file.

    Returns the policy tree, any domain schemas that came with it, and
    namespace prefix hints for later XML output.
    """
    path_str, frag = _split_source(spec)
    data = _read_bytes(path_str)
    if data.lstrip().startswith(b"{"):
        model = _parse_model_or_die(data)
        if frag is None:
            _die(EXIT_IO, f"{path_str}: model sources need a '#kind/name...' fragment")
        subject = _subject_from_fragment(frag)
        for attachment in model.attachments:
            if attachment.subject == subject:
                hints = {d.target_namespace: d.prefix for d in model.domains}
                return attachment.policy, list(model.domains), hints
        _die(EXIT_IO, f"{path_str}: no attachment for subject {frag!r}")

    try:
        doc = parse_xml(data)
    except XmlParseError as exc:
        _die(EXIT_INVALID, f"{path_str}: {exc}")
    if doc.root.name == QName(WSP_NS, "Policy"):
        if frag is not None:
            _die(EXIT_IO, f"{path_str}: fragments only apply to model or WSDL sources")
        try:
            expr = parse_policy_element(doc.root)
        except PolicyXmlError as exc:
            _die(EXIT_INVALID, f"{path_str}: {exc}")
        hints = {uri: prefix for prefix, uri in doc.namespaces.items() if prefix}
        return expr, [], hints
    if doc.root.name == QName(WSDL_NS, "description"):
        try:
            parsed = parse_wsdl(data, _companion_schemas(path_str, doc))
        except (XmlParseError, PolicyXmlError) as exc:
            _die(EXIT_INVALID, f"{path_str}: {exc}")
        attachments = parsed.attachments
        if frag is not None:
            subject = _subject_from_fragment(frag)
            attachments = tuple(a for a in attachments if a.subject == subject)
            if not attachments:
                _die(EXIT_IO, f"{path_str}: no attachment for subject {frag!r}")
        elif len(attachments) > 1:
            _die(EXIT_IO, f"{path_str}: {len(attachments)} policies found; "
                          "pick one with a '#kind/name...' fragment")
        if not attachments:
            _die(EXIT_IO, f"{path_str}: no policy found")
        hints = {d.target_namespace: d.prefix for d in parsed.domains}
        return attachments[0].policy, list(parsed.domains), hints
    _die(EXIT_INVALID, f"{path_str}: unrecognized document root {doc.root.name}")


@click.group()
@click.version_option(__version__, prog_name="wspolicy")
def cli():
    """Generate annotated Web-service descriptions and match their policies."""


@cli.command()
@click.argument("model_path")
def validate(model_path: str):
    """Check a model file; print diagnostics, one per line, on stderr."""
    model = _parse_model_or_die(_read_bytes(model_path))
    diagnostics = validate_model(model)
    for diagnostic in diagnostics:
        click.echo(str(diagnostic), err=True)
    sys.exit(EXIT_INVALID if any(d.severity == "error" for d in diagnostics) else EXIT_OK)


@cli.command()
@click.argument("model_path")
@click.option("--output-dir", default=".", show_default=True,
              help="Directory the file set is written into.")
def generate(model_path: str, output_dir: str):
    """Generate the WSDL and domain XSD files for a model (all-or-nothing)."""
    model = _parse_model_or_die(_read_bytes(model_path))
    try:
        docs = emit_wsdl(model)
    except GenerationError as exc:
        _die(EXIT_INVALID, "\n".join(map(str, exc.diagnostics)))
    if not model.services:
        _die(EXIT_INVALID, "error nothing-to-generate services: the model declares no services")
    files = [(name, write_canonical(doc)) for name, doc in docs]
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files:
        target = out / name
        target.write_bytes(payload)
        click.echo(str(target))
    sys.exit(EXIT_OK)


@cli.command("normalize")
@click.argument("source")
@click.option("--format", "fmt", type=click.Choice(["text", "xml"]), default="text",
              show_default=True, help="Normal-form rendering.")
def normalize_cmd(source: str, fmt: str):
    """Print the normal form of a policy source.

    SOURCE is either 'model.json#kind/name...' or a wsp:Policy XML file.
    """
    expr, _domains, hints = _load_policy_source(source)
    nf = normalize(expr)
    if not nf.satisfiable:
        click.echo("UNSATISFIABLE (0 alternatives)")
        sys.exit(EXIT_EMPTY)
    if fmt == "text":
        for line in render_normal_form(nf):
            click.echo(line)
    else:
        doc = policy_document(denormalize(nf), prefix_hints=hints)
        click.echo(write_canonical(doc).decode("utf-8"), nl=False)
    sys.exit(EXIT_OK)


@cli.command()
@click.argument("source_a")
@click.argument("source_b")
@click.option("--mode", type=click.Choice(["strict", "semantic"]), default="strict",
              show_default=True, help="QName matching only, or widened by shared "
                                      "modelReference URIs.")
@click.option("--vocab", "vocab_paths", multiple=True, metavar="XSD",
              help="Extra domain schema supplying assertion declarations (repeatable).")
@click.option("--explain", is_flag=True, help="Print each compatible alternative pair "
                                              "and the URIs behind semantic matches.")
def intersect(source_a: str, source_b: str, mode: str, vocab_paths: tuple[str, ...],
              explain: bool):
    """Intersect two policy sources; exit 0 if alternatives remain, 3 if none."""
    policy_a, domains_a, _ = _load_policy_source(source_a)
    policy_b, domains_b, _ = _load_policy_source(source_b)
    domains = domains_a + domains_b
    for vocab_path in vocab_paths:
        try:
            domains.append(parse_domain_xsd(_read_bytes(vocab_path)))
        except XmlParseError as exc:
            _die(EXIT_IO, f"{vocab_path}: {exc}")
    try:
        vocab = assertion_vocabulary(domains)
    except VocabularyError as exc:
        _die(EXIT_IO, str(exc))
    match_mode = MatchMode(mode)
    nf_a, nf_b = normalize(policy_a), normalize(policy_b)
    try:
        result = intersect_forms(nf_a, nf_b, match_mode, vocab)
        if explain:
            _print_explanation(nf_a, nf_b, match_mode, vocab)
    except VocabularyError as exc:
        _die(EXIT_IO, f"vocabulary: {exc}")
    if not result.satisfiable:
        click.echo("EMPTY (0 alternatives)")
        sys.exit(EXIT_EMPTY)
    for line in render_normal_form(result):
        click.echo(line)
    sys.exit(EXIT_OK)


def _print_explanation(nf_a: NormalForm, nf_b: NormalForm, mode: MatchMode, vocab):
    for alt_a in nf_a.alternatives:
        for alt_b in nf_b.alternatives:
            if not alternatives_compatible(alt_a, alt_b, mode, vocab):
                continue
            click.echo(f"pair: {_alt_label(alt_a)} ~ {_alt_label(alt_b)}")
            if mode is not MatchMode.SEMANTIC:
                continue
            for a in alt_a:
                for b in alt_b:
                    if a.qname != b.qname and assertions_compatible(a, b, mode, vocab):
                        uris = semantic_match_uris(a.qname, b.qname, vocab)
                        click.echo(f"match: {a.qname} ~ {b.qname} via {uris[0]}")


def main():
    cli(prog_name="wspolicy")


if __name__ == "__main__":
    main()
