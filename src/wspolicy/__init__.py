"""Model-driven generation of Web-service descriptions with semantic policies.

The package turns a declarative service model into SAWSDL-annotated XML
Schema files (one per non-functional domain) and WSDL 2.0 documents with
embedded WS-Policy expressions, and implements the policy algebra that makes
those policies machine-matchable: normalization to alternatives, merging, and
strict or semantic intersection.

The names below load on first use (PEP 562), so importing the package, or one
of its modules, imports only the layers that are used.
"""
import importlib

__version__ = "0.1.0"

# Each module and the public names it exports through the package.
_EXPORTS = {
    "algebra": (
        "All", "AssertionInstance", "AssertionRef", "ExactlyOne", "MatchMode", "NormalForm",
        "Policy", "PolicyExpr", "assertions_compatible", "alternatives_compatible",
        "denormalize", "enumerate_alternatives_oracle", "expand_optional", "intersect", "merge",
        "normal_forms_equal", "normalize",
    ),
    "emit": ("emit_domain_xsd", "emit_policy_element", "emit_wsdl", "policy_document"),
    "errors": (
        "GenerationError", "ModelSchemaError", "ModelSyntaxError", "OracleLimitError",
        "PolicyXmlError", "VocabularyError", "WspolicyError", "XmlParseError",
    ),
    "model": (
        "AssertionDecl", "AttributeDecl", "BindingDecl", "Diagnostic", "DomainSchema", "Endpoint",
        "ExternalNamespace", "FaultDecl", "InterfaceDecl", "MessageRef", "OperationDecl",
        "PolicyAttachment", "SemanticAnnotation", "ServiceDecl", "ServiceModel", "SubjectRef",
        "assertion_vocabulary", "resolve_subject", "validate_domain", "validate_model",
    ),
    "modelfile": ("parse_model", "serialize_model"),
    "names": ("QName",),
    "reader": ("ParsedArtifacts", "parse_domain_xsd", "parse_policy_element", "parse_wsdl"),
    "xmltree": ("XmlDocument", "XmlElement", "parse_xml", "write_canonical"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
