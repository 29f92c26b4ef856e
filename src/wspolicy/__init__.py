"""Model-driven generation of Web-service descriptions with semantic policies.

The package turns a declarative service model into SAWSDL-annotated XML
Schema files (one per non-functional domain) and WSDL 2.0 documents with
embedded WS-Policy expressions, and implements the policy algebra that makes
those policies machine-matchable: normalization to alternatives, merging, and
strict or semantic intersection.
"""

__version__ = "0.1.0"

from .algebra import (
    All,
    AssertionInstance,
    AssertionRef,
    ExactlyOne,
    MatchMode,
    NormalForm,
    Policy,
    PolicyExpr,
    assertions_compatible,
    alternatives_compatible,
    denormalize,
    enumerate_alternatives_oracle,
    expand_optional,
    intersect,
    merge,
    normal_forms_equal,
    normalize,
)
from .emit import emit_domain_xsd, emit_policy_element, emit_wsdl, policy_document
from .errors import (
    GenerationError,
    ModelSchemaError,
    ModelSyntaxError,
    OracleLimitError,
    PolicyXmlError,
    VocabularyError,
    WspolicyError,
    XmlParseError,
)
from .model import (
    AssertionDecl,
    AttributeDecl,
    BindingDecl,
    Diagnostic,
    DomainSchema,
    Endpoint,
    ExternalNamespace,
    FaultDecl,
    InterfaceDecl,
    MessageRef,
    OperationDecl,
    PolicyAttachment,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
    assertion_vocabulary,
    resolve_subject,
    validate_domain,
    validate_model,
)
from .modelfile import parse_model, serialize_model
from .names import QName
from .reader import ParsedArtifacts, parse_domain_xsd, parse_policy_element, parse_wsdl
from .xmltree import XmlDocument, XmlElement, parse_xml, write_canonical

__all__ = [name for name in dir() if not name.startswith("_")]
