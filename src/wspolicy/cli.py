"""Command-line front end tying ingestion, validation, generation and the
policy algebra together.

Exit codes are a contract: 0 success (non-empty result), 1 validation or
content failure, 2 I/O or vocabulary resolution failure, 3 empty or
unsatisfiable result.  Standard output is one record per line with stable
ordering; diagnostics go to standard error.

Each command imports the layers it runs, and no others, when it runs: a
process pays start-up only for what its command uses.
"""
from __future__ import annotations

import codecs
import errno
import importlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import _MODULE_OF, __version__
from .errors import (
    GenerationError,
    ModelSchemaError,
    ModelSyntaxError,
    PolicyXmlError,
    VocabularyError,
    XmlParseError,
)
from .names import ATTR_SCHEMA_LOCATION, WSDL_DESCRIPTION, WSDL_TYPES, WSP_POLICY, XS_IMPORT

if TYPE_CHECKING:
    from .algebra import NormalForm, PolicyExpr
    from .model import DomainSchema, ServiceModel, SubjectRef

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_EMPTY = 3


def _die(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _die(EXIT_IO, f"cannot read {path}: {exc}")


def _write_all(files: list[tuple[Path, bytes]]) -> None:
    """Put every file in place or none.  Each payload is written to a
    temporary beside its target first; the temporaries are renamed onto the
    targets only once all are written and no target is a directory, which a
    rename cannot replace.  On failure the temporaries are removed."""
    temps: list[Path] = []
    try:
        for target, payload in files:
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(temp)
            with open(fd, "wb") as stream:
                stream.write(payload)
        for target, _ in files:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for temp, (target, _) in zip(temps, files):
            os.replace(temp, target)
    except OSError as exc:  # ``target`` is the file whose step failed
        for temp in temps:
            temp.unlink(missing_ok=True)
        _die(EXIT_IO, f"cannot write {target}: {exc}")


def _parse_model_or_die(data: bytes) -> ServiceModel:
    from .modelfile import parse_model

    try:
        return parse_model(data)
    except ModelSyntaxError as exc:
        _die(EXIT_INVALID, f"error model-syntax document: {exc}")
    except ModelSchemaError as exc:
        _die(EXIT_INVALID, f"error model-schema {exc}")


def _alt_label(alt) -> str:
    return ", ".join(str(i.qname) for i in alt) if alt else "(empty alternative)"


def render_normal_form(nf: NormalForm) -> list[str]:
    """One alternative per line as sorted QName lists, nested forms indented."""
    lines: list[str] = []

    def walk(form: NormalForm, indent: str):
        for alt in form.alternatives:
            lines.append(indent + _alt_label(alt))
            for instance in alt:
                if instance.nested is not None:
                    walk(instance.nested, indent + "  ")

    walk(nf, "")
    return lines


def _subject_from_fragment(frag: str) -> SubjectRef:
    from .model import SUBJECT_KINDS, SubjectRef

    parts = [p for p in frag.split("/") if p]
    if len(parts) < 2 or parts[0] not in SUBJECT_KINDS:
        _die(EXIT_IO, f"bad fragment {frag!r}: expected kind/name[/name] with kind "
                      f"in {SUBJECT_KINDS}")
    return SubjectRef(parts[0], tuple(parts[1:]))


def _load_schema(path: str) -> DomainSchema:
    """An imported or --vocab domain schema, parsed once; its faults name its path."""
    from .reader import parse_domain_xsd

    try:
        return parse_domain_xsd(_read_bytes(path))
    except XmlParseError as exc:
        _die(EXIT_INVALID, f"{path}: {exc}")


def _companion_schemas(wsdl_path: str, root) -> list[DomainSchema]:
    """Schemas referenced by xs:import that exist beside the WSDL file."""
    base = Path(wsdl_path).parent
    locations = (item.attr(ATTR_SCHEMA_LOCATION) for types in root.find_all(WSDL_TYPES)
                 for item in types.find_all(XS_IMPORT))
    return [_load_schema(str(base / loc)) for loc in locations if loc and (base / loc).is_file()]


def _load_policy_source(spec: str) -> tuple[PolicyExpr, list[DomainSchema], dict[str, str]]:
    """A policy from 'model.json#kind/name...', a wsp:Policy file, or a WSDL file.

    Returns the policy tree, any domain schemas that came with it, and
    namespace prefix hints for later XML output.  Model and WSDL sources
    load as attachments and domains, and one selection serves both.
    """
    path_str, sep, frag = spec.partition("#")
    frag = frag if sep else None
    data = _read_bytes(path_str)
    model_source = data.removeprefix(codecs.BOM_UTF8).lstrip().startswith(b"{")
    if model_source:
        loaded = _parse_model_or_die(data)
    else:
        from .reader import parse_policy_element, parse_wsdl
        from .xmltree import parse_xml

        try:
            doc = parse_xml(data)
            if doc.root.name == WSP_POLICY:
                if frag is not None:
                    _die(EXIT_IO, f"{path_str}: fragments only apply to model or WSDL sources")
                hints = {uri: prefix for prefix, uri in doc.namespaces.items() if prefix}
                return parse_policy_element(doc.root), [], hints
            if doc.root.name != WSDL_DESCRIPTION:
                _die(EXIT_INVALID, f"{path_str}: unrecognized document root {doc.root.name}")
            loaded = parse_wsdl(doc.root, _companion_schemas(path_str, doc.root))
        except (XmlParseError, PolicyXmlError) as exc:
            _die(EXIT_INVALID, f"{path_str}: {exc}")
    attachments = loaded.attachments
    if frag is not None:
        subject = _subject_from_fragment(frag)
        attachments = [a for a in attachments if a.subject == subject]
        if not attachments:
            _die(EXIT_IO, f"{path_str}: no attachment for subject {frag!r}")
    elif model_source:
        _die(EXIT_IO, f"{path_str}: model sources need a '#kind/name...' fragment")
    elif len(attachments) > 1:
        _die(EXIT_IO, f"{path_str}: {len(attachments)} policies found; "
                      "pick one with a '#kind/name...' fragment")
    if not attachments:
        _die(EXIT_IO, f"{path_str}: no policy found")
    hints = {d.target_namespace: d.prefix for d in loaded.domains}
    return attachments[0].policy, list(loaded.domains), hints


@click.group()
@click.version_option(__version__, prog_name="wspolicy")
def cli():
    """Generate annotated Web-service descriptions and match their policies."""


@cli.command()
@click.argument("model_path")
def validate(model_path: str):
    """Check a model file; print diagnostics, one per line, on stderr."""
    from .model import validate_model

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
    from .emit import emit_wsdl
    from .xmltree import write_canonical

    model = _parse_model_or_die(_read_bytes(model_path))
    try:
        docs = emit_wsdl(model)
    except GenerationError as exc:
        _die(EXIT_INVALID, "\n".join(map(str, exc.diagnostics)))
    if not model.services:
        _die(EXIT_INVALID, "error nothing-to-generate services: the model declares no services")
    out = Path(output_dir)
    files = [(out / name, write_canonical(doc)) for name, doc in docs]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _die(EXIT_IO, f"cannot write {out}: {exc}")
    _write_all(files)
    for target, _ in files:
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
    from .algebra import normalize

    expr, _domains, hints = _load_policy_source(source)
    nf = normalize(expr)
    if not nf.satisfiable:
        click.echo("UNSATISFIABLE (0 alternatives)")
        sys.exit(EXIT_EMPTY)
    if fmt == "text":
        for line in render_normal_form(nf):
            click.echo(line)
    else:
        from .algebra import denormalize
        from .emit import policy_document
        from .xmltree import write_canonical

        try:
            doc = policy_document(denormalize(nf), prefix_hints=hints)
        except GenerationError as exc:
            _die(EXIT_INVALID, f"{source}: {exc}")
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
    from .algebra import MatchMode, compatible_pairs, intersect as intersect_forms, normalize
    from .model import assertion_vocabulary

    policy_a, domains_a, _ = _load_policy_source(source_a)
    policy_b, domains_b, _ = _load_policy_source(source_b)
    domains = domains_a + domains_b + [_load_schema(path) for path in vocab_paths]
    try:
        vocab = assertion_vocabulary(domains)
    except VocabularyError as exc:
        _die(EXIT_IO, str(exc))
    match_mode = MatchMode(mode)
    nf_a, nf_b = normalize(policy_a), normalize(policy_b)
    try:
        result = intersect_forms(nf_a, nf_b, match_mode, vocab)
        pairs = compatible_pairs(nf_a, nf_b, match_mode, vocab) if explain else ()
        for alt_a, alt_b, matches in pairs:
            click.echo(f"pair: {_alt_label(alt_a)} ~ {_alt_label(alt_b)}")
            for qname_a, qname_b, uri in matches:
                click.echo(f"match: {qname_a} ~ {qname_b} via {uri}")
    except VocabularyError as exc:
        _die(EXIT_IO, f"vocabulary: {exc}")
    if not result.satisfiable:
        click.echo("EMPTY (0 alternatives)")
        sys.exit(EXIT_EMPTY)
    for line in render_normal_form(result):
        click.echo(line)
    sys.exit(EXIT_OK)


def main():
    cli(prog_name="wspolicy")


def __getattr__(name: str):
    """The layer functions ``benchmarks/spans.py`` wraps as ``cli.<name>``, read
    from their modules on each use; the commands call the modules' own
    bindings, which it wraps as well.  Goes when ROADMAP item 2 replaces the
    name-wrapping tracer."""
    attr = "intersect" if name == "intersect_forms" else name
    if attr not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"wspolicy.{_MODULE_OF[attr]}"), attr)


if __name__ == "__main__":
    main()
