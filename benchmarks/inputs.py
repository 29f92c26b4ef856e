"""Seeded input generator for the benchmark workloads.

Everything here is stdlib-only and never imports ``wspolicy``: the program
under test receives only the bytes made here, and the expected answers
(normal forms, registry matches, shared alternatives) are computed here by
code that is independent of ``wspolicy.algebra``.

Policy trees use a small tuple form of their own:

- ``("policy", children)``, ``("all", children)``, ``("one", children)``
- ``("a", namespace, local, optional, params, nested)`` where ``params`` is a
  sorted tuple of ``(name, str)`` pairs and ``nested`` is a ``"policy"`` tree
  or ``None``.

An alternative set is a frozenset of alternatives; an alternative is a
frozenset of instances ``(namespace, local, params, nested_alternatives)``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

WSDL_NS = "http://www.w3.org/ns/wsdl"
WSP_NS = "http://www.w3.org/ns/ws-policy"
XS_NS = "http://www.w3.org/2001/XMLSchema"
SAWSDL_NS = "http://www.w3.org/ns/sawsdl"
SOAP = "http://www.w3.org/ns/wsdl/soap"
TYPES_NS = "http://bench.example.org/types"
DOMAIN_NAME_APPINFO = "urn:x-wspolicy:domain-name"
NESTABLE_APPINFO = "urn:x-wspolicy:nestable-assertions"

# All six letters long, so that the seed changes names but not their sizes.
WORDS = (
    "Alpine", "Bronze", "Canyon", "Dragon", "Falcon", "Garnet", "Harbor", "Indigo",
    "Jasper", "Kernel", "Lagoon", "Marble", "Nectar", "Orchid", "Pepper", "Quartz",
    "Ribbon", "Saturn", "Tundra", "Umbral", "Velvet", "Walnut", "Yonder", "Zephyr",
)


def workload_rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def word(rng: random.Random) -> str:
    return rng.choice(WORDS)


# --- policy trees ------------------------------------------------------------

def A(ns, local, optional=False, params=(), nested=None):
    return ("a", ns, local, optional, tuple(sorted(params)), nested)


def P(*children):
    return ("policy", list(children))


def All(*children):
    return ("all", list(children))


def One(*children):
    return ("one", list(children))


def alternatives(expr) -> frozenset:
    """WS-Policy normal form by direct enumeration (independent of wspolicy)."""
    kind = expr[0]
    if kind == "a":
        _, ns, local, optional, params, nested = expr
        inner = alternatives(nested) if nested is not None else None
        alts = [frozenset({(ns, local, params, inner)})]
        if optional:
            alts.append(frozenset())
        return frozenset(alts)
    if kind == "one":
        out: set = set()
        for child in expr[1]:
            out |= alternatives(child)
        return frozenset(out)
    acc = {frozenset()}
    for child in expr[1]:
        child_alts = alternatives(child)
        acc = {a | b for a in acc for b in child_alts}
    return frozenset(acc)


def policy_json(expr) -> dict:
    kind = expr[0]
    if kind == "a":
        _, ns, local, optional, params, nested = expr
        body: dict = {"qname": {"namespace": ns, "local": local}}
        if optional:
            body["optional"] = True
        if params:
            body["parameters"] = [{"name": n, "value": v} for n, v in params]
        if nested is not None:
            body["nested"] = policy_json(nested)
        return {"assertion": body}
    key = {"policy": "policy", "all": "all", "one": "exactlyOne"}[kind]
    return {key: [policy_json(c) for c in expr[1]]}


def policy_xml(expr, prefixes: dict[str, str], indent: str = "") -> str:
    """XML text for a policy tree; ``prefixes`` maps namespace URI -> prefix."""
    kind = expr[0]
    if kind == "a":
        _, ns, local, optional, params, nested = expr
        tag = f"{prefixes[ns]}:{local}"
        attrs = "".join(f" {n}={quoteattr(v)}" for n, v in params)
        if optional:
            attrs += ' wsp:Optional="true"'
        if nested is None:
            return f"{indent}<{tag}{attrs}/>\n"
        return (f"{indent}<{tag}{attrs}>\n" + policy_xml(nested, prefixes, indent + "  ")
                + f"{indent}</{tag}>\n")
    tag = {"policy": "wsp:Policy", "all": "wsp:All", "one": "wsp:ExactlyOne"}[kind]
    if not expr[1]:
        return f"{indent}<{tag}/>\n"
    inner = "".join(policy_xml(c, prefixes, indent + "  ") for c in expr[1])
    return f"{indent}<{tag}>\n{inner}{indent}</{tag}>\n"


def policy_document(expr, prefixes: dict[str, str]) -> bytes:
    decls = "".join(f" xmlns:{p}={quoteattr(ns)}" for ns, p in sorted(prefixes.items()))
    body = policy_xml(expr, prefixes)
    first, rest = body.split(">", 1)
    if first.endswith("/"):
        first, rest = first[:-1], "/>" + rest
    else:
        rest = ">" + rest
    return ('<?xml version="1.0" encoding="UTF-8"?>\n' + first
            + f' xmlns:wsp="{WSP_NS}"' + decls + rest).encode("utf-8")


def xsd_document(domain_name: str, namespace: str, prefix: str, decls: list[dict]) -> bytes:
    """A domain schema in the dialect wspolicy emits; decls carry ``name``,
    ``uris`` and optionally ``nestable``."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<xs:schema xmlns:sawsdl="{SAWSDL_NS}" xmlns:{prefix}={quoteattr(namespace)} '
        f'xmlns:xs="{XS_NS}" elementFormDefault="qualified" targetNamespace={quoteattr(namespace)}>',
        "  <xs:annotation>",
        f'    <xs:appinfo source="{DOMAIN_NAME_APPINFO}">{escape(domain_name)}</xs:appinfo>',
        "  </xs:annotation>",
    ]
    for decl in decls:
        refs = quoteattr(" ".join(decl["uris"]))
        lines.append(f'  <xs:element name="{decl["name"]}" sawsdl:modelReference={refs}>')
        if decl.get("nestable"):
            lines += [
                "    <xs:annotation>",
                f'      <xs:appinfo source="{NESTABLE_APPINFO}">{" ".join(decl["nestable"])}</xs:appinfo>',
                "    </xs:annotation>",
                "    <xs:complexType>",
                "      <xs:sequence>",
                '        <xs:any minOccurs="0" namespace="##other" processContents="lax"/>',
                "      </xs:sequence>",
                "    </xs:complexType>",
            ]
        else:
            lines.append("    <xs:complexType/>")
        lines.append("  </xs:element>")
    lines.append("</xs:schema>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- generate: one seeded service model -----------------------------------------

GEN_INTERFACES = 200
GEN_DOMAINS = 4
GEN_ASSERTIONS = 10  # per domain; index % 5 picks the declaration shape
GEN_MODELS = 3       # distinct models per input set


@dataclass
class ModelCase:
    """One model's JSON bytes plus what its generated files must contain."""

    data: bytes
    wsdl_name: str
    interfaces: set
    bindings: set
    services: set
    endpoints: set                      # (service, endpoint)
    subjects: dict                      # (kind, path tuple) -> expected alternatives
    xsd_refs: dict                      # xsd file name -> {assertion name: [uris]}
    domain_namespaces: dict             # xsd file name -> target namespace


def make_model(rng: random.Random, n_interfaces: int = GEN_INTERFACES) -> ModelCase:
    tag = rng.randrange(10**6)
    target = f"http://bench.example.org/svc{tag}"
    domains = []
    domain_decls = []                   # per domain: (namespace, assertion names)
    xsd_refs: dict = {}
    domain_namespaces: dict = {}
    for d in range(GEN_DOMAINS):
        dname = f"nfp{d}{word(rng).lower()}"
        ns = f"http://bench.example.org/{dname}.xsd"
        names = [f"{word(rng)}{j}" for j in range(GEN_ASSERTIONS)]
        assertions = []
        refs = {}
        for j, name in enumerate(names):
            uris = [f"http://onto.example.org/nfp/{dname}/c{j}"]
            if j % 2:
                uris.append(f"http://onto.example.org/upper/q{rng.randrange(50)}")
            annotation: dict = {"modelReference": uris}
            decl: dict = {"name": name}
            shape = j % 5
            if shape == 0:
                decl["typeKind"] = "complex"
                decl["nestableChildren"] = [names[j + 1], names[j + 2]]
                decl["attributes"] = [{
                    "name": "level",
                    "simpleType": {"namespace": XS_NS, "local": "string"},
                    "annotation": {"modelReference": [f"http://onto.example.org/nfp/{dname}/level"]},
                }]
            elif shape == 3:
                decl["typeKind"] = "simple"
                decl["simpleType"] = {"namespace": XS_NS, "local": "int"}
            elif shape == 4:
                decl["typeKind"] = "complex"
                decl["attributes"] = [{"name": "mode", "simpleType": {"namespace": XS_NS, "local": "string"}}]
                annotation["liftingSchema"] = f"http://bench.example.org/lift/{dname}/{j}"
                annotation["loweringSchema"] = f"http://bench.example.org/lower/{dname}/{j}"
            else:
                decl["typeKind"] = "empty"
            decl["annotation"] = annotation
            assertions.append(decl)
            refs[name] = uris
        domains.append({"name": dname, "targetNamespace": ns, "prefix": f"d{d}", "assertions": assertions})
        domain_decls.append((ns, names))
        xsd_refs[f"ws-semantic{dname}policy.xsd"] = refs
        domain_namespaces[f"ws-semantic{dname}policy.xsd"] = ns

    def endpoint_policy():
        ns, names = domain_decls[rng.randrange(GEN_DOMAINS)]
        c = rng.choice((0, 5))
        others = [names[j] for j in range(GEN_ASSERTIONS) if j not in (c, c + 1, c + 2)]
        e1, e2, e3, e4 = rng.sample(others, 4)
        nested = P(One(All(A(ns, names[c + 1])), All(A(ns, names[c + 2]))))
        level = rng.choice(("low", "high", "strict"))
        return P(
            A(ns, names[c], params=(("level", level),), nested=nested),
            One(All(A(ns, e1), A(ns, e2)), All(A(ns, e3))),
            A(ns, e4, optional=True),
        )

    def operation_policy():
        ns, names = domain_decls[rng.randrange(GEN_DOMAINS)]
        x, y, z = rng.sample(names, 3)
        return P(One(All(A(ns, x)), All(A(ns, y), A(ns, z, optional=True))))

    interfaces, bindings, services, attachments = [], [], [], []
    subjects: dict = {}
    endpoints = set()
    for k in range(n_interfaces):
        iname, bname, sname, ename = (f"{p}{k}{word(rng)}" for p in ("I", "B", "S", "E"))
        ops = [
            {"name": "get", "inputs": [{"name": "In", "elementType": {"namespace": TYPES_NS, "local": f"req{k}"}}],
             "outputs": [{"name": "Out", "elementType": {"namespace": TYPES_NS, "local": f"resp{k}"}}]},
            {"name": "put", "inputs": [{"name": "In", "elementType": {"namespace": TYPES_NS, "local": f"put{k}"}}],
             "faultRefs": ["Fail"]},
        ]
        interfaces.append({"name": iname, "operations": ops,
                           "faults": [{"name": "Fail", "elementType": {"namespace": TYPES_NS, "local": "fault"}}]})
        bindings.append({"name": bname, "interface": iname, "transportProtocol": SOAP,
                         "messageEncoding": "application/soap+xml"})
        services.append({"name": sname, "interface": iname,
                         "endpoints": [{"name": ename, "binding": bname,
                                        "address": f"http://bench.example.org/{sname}"}]})
        endpoints.add((sname, ename))
        for kind, path, policy in (
            ("endpoint", [sname, ename], endpoint_policy()),
            ("operation", [iname, rng.choice(("get", "put"))], operation_policy()),
        ):
            attachments.append({"subject": {"kind": kind, "path": path}, "policy": policy_json(policy)})
            subjects[(kind, tuple(path))] = alternatives(policy)
    model_name = f"Bench{tag}"
    doc = {
        "formatVersion": "1.0",
        "modelName": model_name,
        "targetNamespace": target,
        "externalNamespaces": [{"namespace": TYPES_NS, "prefix": "ty"}],
        "domains": domains,
        "interfaces": interfaces,
        "bindings": bindings,
        "services": services,
        "attachments": attachments,
    }
    return ModelCase(
        data=json.dumps(doc, indent=2).encode("utf-8"),
        wsdl_name=f"{model_name}.wsdl",
        interfaces={i["name"] for i in interfaces},
        bindings={b["name"] for b in bindings},
        services={s["name"] for s in services},
        endpoints=endpoints,
        subjects=subjects,
        xsd_refs=xsd_refs,
        domain_namespaces=domain_namespaces,
    )


def generate_inputs(seed: int) -> list[ModelCase]:
    rng = workload_rng("generate", seed)
    return [make_model(rng) for _ in range(GEN_MODELS)]


# --- match-registry: providers, an alias vocabulary and requester queries ---------

REG_PROVIDERS = 16
REG_PLANTED_PROVIDERS = 12   # the only providers whose policies use query concepts
REG_QUERIES = 6
REG_PLANTED_PER_QUERY = 6    # (provider, subject) pairs planted to match each query
REG_ALTS = 3                 # alternatives per policy, provider and requester alike
REG_WIDTH = 3                # assertions per alternative
ALIAS_NS = "http://requester.example.org/alias"
SHARED = "http://onto.example.org/shared/c{}"
# Spellings that normalize (RFC 3986 syntax normalization) to SHARED.
SHARED_VARIANTS = (
    "HTTP://Onto.Example.ORG/shared/c{}",
    "http://onto.example.org/shared/./x/../c{}",
    "http://onto.example.org/shared/%63{}",
    "http://ONTO.example.org/a/../shared/c{}",
)
SUBJECTS = (
    ("binding", ("B",)),
    ("endpoint", ("S", "E")),
    ("interface", ("I",)),
    ("operation", ("I", "op0")),
)


@dataclass
class Provider:
    wsdl: bytes
    xsd: bytes
    concepts: dict               # subject path -> alternatives as lists of concept-id sets


@dataclass
class Query:
    policy: bytes
    concepts: list               # alternatives as lists of concept-id sets


@dataclass
class RegistryInputs:
    providers: list
    alias_xsd: bytes
    queries: list


def _provider_wsdl(k: int, ns: str, policies: dict[str, str], n_ops: int = 5) -> bytes:
    tns = f"http://prov{k}.example.org/svc"
    def pol(subject):
        return policies.get(subject, "")
    ops = []
    for i in range(n_ops):
        ops.append(
            f'    <wsdl:operation name="op{i}" pattern="http://www.w3.org/ns/wsdl/in-out">\n'
            + pol(f"operation/I/op{i}")
            + f'      <wsdl:input element="ty:req{i}" messageLabel="In"/>\n'
            f'      <wsdl:output element="ty:resp{i}" messageLabel="Out"/>\n'
            "    </wsdl:operation>\n"
        )
    text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<wsdl:description xmlns:p="{ns}" xmlns:tns="{tns}" xmlns:ty="{TYPES_NS}" '
        f'xmlns:wsdl="{WSDL_NS}" xmlns:wsp="{WSP_NS}" xmlns:xs="{XS_NS}" targetNamespace="{tns}">\n'
        "  <wsdl:types>\n"
        f'    <xs:import namespace="{ns}" schemaLocation="prov{k}.xsd"/>\n'
        "  </wsdl:types>\n"
        '  <wsdl:interface name="I">\n' + pol("interface/I") + "".join(ops) + "  </wsdl:interface>\n"
        f'  <wsdl:binding interface="I" name="B" type="{SOAP}">\n' + pol("binding/B") + "  </wsdl:binding>\n"
        '  <wsdl:service interface="I" name="S">\n'
        f'    <wsdl:endpoint address="http://prov{k}.example.org/S" binding="B" name="E">\n'
        + pol("endpoint/S/E") + "    </wsdl:endpoint>\n  </wsdl:service>\n</wsdl:description>\n"
    )
    return text.encode("utf-8")


def _indent(text: str, by: str) -> str:
    return "".join(by + line + "\n" for line in text.splitlines())


def registry_inputs(seed: int) -> RegistryInputs:
    rng = workload_rng("match-registry", seed)
    # Each query alternative gets its own block of shared concepts, so a
    # provider alternative copying one block matches that query only.
    query_alts = [
        [[(q * REG_ALTS + a) * REG_WIDTH + w for w in range(REG_WIDTH)] for a in range(REG_ALTS)]
        for q in range(REG_QUERIES)
    ]
    planted_providers = rng.sample(range(REG_PROVIDERS), REG_PLANTED_PROVIDERS)
    slots = [(k, s) for k in planted_providers for s in range(len(SUBJECTS))]
    chosen = rng.sample(slots, REG_QUERIES * REG_PLANTED_PER_QUERY)
    plant: dict = {}
    for i, slot in enumerate(chosen):
        q = i // REG_PLANTED_PER_QUERY
        plant[slot] = query_alts[q][rng.randrange(REG_ALTS)]

    providers = []
    for k in range(REG_PROVIDERS):
        ns = f"http://prov{k}.example.org/nfp"
        decls = []
        policies_xml: dict[str, str] = {}
        concepts: dict = {}
        for s, (kind, path) in enumerate(SUBJECTS):
            alts_xml = []
            alt_concepts = []
            planted_at = rng.randrange(REG_ALTS) if (k, s) in plant else -1
            for a in range(REG_ALTS):
                members = []
                for w in range(REG_WIDTH):
                    name = f"{word(rng)}{s}x{a}x{w}"
                    if a == planted_at:
                        concept = ("shared", plant[(k, s)][w])
                        uri = SHARED.format(concept[1])
                    else:
                        concept = ("private", k, s, a, w)
                        uri = f"http://onto.example.org/private/p{k}/c{s}x{a}x{w}"
                    decls.append({"name": name, "uris": [uri, f"http://docs.example.org/p{k}/{name}"]})
                    members.append((name, {concept}))
                rng.shuffle(members)
                alts_xml.append(All(*(A(ns, name) for name, _ in members)))
                alt_concepts.append([c for _, c in members])
            rng.shuffle(alts_xml)
            subject = "/".join((kind,) + path)
            policies_xml[subject] = _indent(
                policy_xml(P(One(*alts_xml)), {ns: "p", WSP_NS: "wsp"}).rstrip("\n"),
                "      " if kind in ("operation", "endpoint") else "    ",
            )
            concepts[subject] = alt_concepts
        rng.shuffle(decls)
        providers.append(Provider(
            wsdl=_provider_wsdl(k, ns, policies_xml),
            xsd=xsd_document(f"prov{k}", ns, "p", decls),
            concepts=concepts,
        ))

    alias_decls = []
    queries = []
    for q in range(REG_QUERIES):
        alts = []
        alt_concepts = []
        for members in query_alts[q]:
            refs = []
            for c in members:
                name = f"Want{c}{word(rng)}"
                # A fixed spelling per concept keeps normalize_uri's work seed-independent.
                variant = SHARED_VARIANTS[c % len(SHARED_VARIANTS)].format(c)
                alias_decls.append({"name": name, "uris": [variant, f"http://requester.example.org/doc/{name}"]})
                refs.append(A(ALIAS_NS, name))
            rng.shuffle(refs)
            alts.append(All(*refs))
            alt_concepts.append([{("shared", c)} for c in members])
        rng.shuffle(alts)
        queries.append(Query(
            policy=policy_document(P(One(*alts)), {ALIAS_NS: "al"}),
            concepts=alt_concepts,
        ))
    rng.shuffle(alias_decls)
    return RegistryInputs(providers, xsd_document("alias", ALIAS_NS, "al", alias_decls), queries)


def _alt_match(alt_a, alt_b) -> bool:
    """Semantic alternative compatibility over concept-id sets: every instance
    on each side shares a concept with some instance on the other."""
    return (all(any(a & b for b in alt_b) for a in alt_a)
            and all(any(a & b for a in alt_a) for b in alt_b))


def expected_matches(inputs: RegistryInputs, query: Query) -> set:
    """(provider index, subject path) pairs whose policy meets the query."""
    found = set()
    for k, provider in enumerate(inputs.providers):
        for subject, alts in provider.concepts.items():
            if any(_alt_match(pa, qa) for pa in alts for qa in query.concepts):
                found.add((k, subject))
    return found


# --- match-wide: wide provider/requester pairs -------------------------------------

WIDE_PAIRS = 6
WIDE_K1, WIDE_K2, WIDE_OPT = 6, 4, 2          # provider: 6 * 4 * 2**2 = 96 alternatives
WIDE_S1, WIDE_S2 = 3, 2                       # shared: 3 * 2 * 2**2 = 24 alternatives
WIDE_O1, WIDE_O2, WIDE_OOPT = 5, 4, 2         # requester-only QNames: 5 * 4 * 2**2 = 80 alternatives
WIDE_PROVIDER_ALTS = WIDE_K1 * WIDE_K2 * 2 ** WIDE_OPT
WIDE_SHARED_ALTS = WIDE_S1 * WIDE_S2 * 2 ** WIDE_OPT
WIDE_DECOY_ALTS = WIDE_S2 * 2 ** WIDE_OPT      # nested decoys: 1 * 2 * 2**2 = 8 alternatives
WIDE_SUPERSET_ALTS = 2 * 1 * 2 ** WIDE_OPT      # supersets: 2 * 1 * 2**2 = 8 alternatives
WIDE_REQUESTER_ALTS = (WIDE_SHARED_ALTS + WIDE_O1 * WIDE_O2 * 2 ** WIDE_OOPT
                       + WIDE_DECOY_ALTS + WIDE_SUPERSET_ALTS)
WIDE_NS = "http://wide.example.org/policy"
WIDE_ONLY_NS = "http://wide.example.org/requester-only"


@dataclass
class WidePair:
    provider: bytes
    requester: bytes
    shared: frozenset            # expected intersection, as alternatives


def _wide_pair(rng: random.Random) -> WidePair:
    counter = iter(range(10**6))

    def name():
        return f"{word(rng)}{next(counter)}"

    def branch(ns, index, nested_ok):
        # One or two assertions by position; the first branch carries a nested policy.
        refs = [A(ns, name()) for _ in range(1 + index % 2)]
        if nested_ok:
            inner = P(One(All(A(ns, name()), A(ns, name())), All(A(ns, name()))))
            refs[0] = A(ns, refs[0][2], params=(("tier", str(rng.randrange(3))),), nested=inner)
        return All(*refs)

    e1 = [branch(WIDE_NS, i, i == 0) for i in range(WIDE_K1)]
    e2 = [branch(WIDE_NS, i, i == 0) for i in range(WIDE_K2)]
    opts = [A(WIDE_NS, name(), optional=True) for _ in range(WIDE_OPT)]
    provider = P(All(One(*rng.sample(e1, len(e1))), One(*rng.sample(e2, len(e2))), *opts))

    shared = All(One(*rng.sample(e1, WIDE_S1)), One(*rng.sample(e2, WIDE_S2)), *opts)
    o1 = [branch(WIDE_ONLY_NS, i, i == 0) for i in range(WIDE_O1)]
    o2 = [branch(WIDE_ONLY_NS, i, False) for i in range(WIDE_O2)]
    oopts = [A(WIDE_ONLY_NS, name(), optional=True) for _ in range(WIDE_OOPT)]
    only = All(One(*o1), One(*o2), *oopts)
    # Decoys: the QNames of provider alternatives at the top level, but a
    # nested policy of absent QNames, so only the nested intersection rejects them.
    _, ns, local, _, params, _ = e1[0][1][0]
    decoy_ref = A(ns, local, params=params, nested=P(One(All(A(WIDE_ONLY_NS, name())))))
    decoy = All(One(All(decoy_ref, *e1[0][1][1:])), One(*rng.sample(e2, WIDE_S2)), *opts)
    # Supersets: a provider alternative plus one absent QName, which only the
    # check from the requester's side rejects.
    superset = All(One(*rng.sample(e1, 2)), One(*rng.sample(e2, 1)), *opts, A(WIDE_ONLY_NS, name()))
    requester = P(One(*rng.sample([shared, only, decoy, superset], 4)))
    prefixes = {WIDE_NS: "w", WIDE_ONLY_NS: "r"}
    return WidePair(
        provider=policy_document(provider, prefixes),
        requester=policy_document(requester, prefixes),
        shared=alternatives(shared),
    )


def wide_inputs(seed: int) -> list[WidePair]:
    rng = workload_rng("match-wide", seed)
    return [_wide_pair(rng) for _ in range(WIDE_PAIRS)]


# --- cli: alias requesters for the travel-agency fixture -----------------------------

ACME_NS = "http://example.org/acme-security.xsd"
SP_NS = "http://emi/ws-semanticsecuritypolicy.xsd"
ONTO = "http://example.org/sec-onto#"
CLI_FRAGMENT = "endpoint/TravelAgencyService/TravelAgencyEndpoint"


@dataclass
class CliInputs:
    requester: bytes
    vocab: bytes
    rotation: list               # command names in the order one pass runs them
    normalize_lines: list
    intersect_lines: list


def cli_inputs(seed: int) -> CliInputs:
    rng = workload_rng("cli", seed)
    password = rng.choice(("HashedPwd", "PlainPwd"))
    vocab = xsd_document("acmesecurity", ACME_NS, "acme", [
        {"name": "HashedPwd", "uris": [ONTO + "HashPassword"]},
        {"name": "PlainPwd", "uris": [ONTO + "NoPassword"]},
        {"name": "UserToken", "uris": [ONTO + "UsernameToken"],
         "nestable": ["HashedPwd", "PlainPwd", "Wss10Token"]},
        {"name": "Wss10Token", "uris": [ONTO + "WssUsernameToken10"]},
    ])
    requester = policy_document(
        P(A(ACME_NS, "UserToken", nested=P(One(All(A(ACME_NS, password), A(ACME_NS, "Wss10Token")))))),
        {ACME_NS: "acme"},
    )
    sp = "{%s}" % SP_NS
    acme = "{%s}" % ACME_NS
    nested_sp = [
        f"  {sp}HashPassword, {sp}WssUsernameToken10",
        f"  {sp}NoPassword, {sp}WssUsernameToken10",
    ]
    rotation = ["generate", "normalize", "intersect"]
    start = rng.randrange(3)
    return CliInputs(
        requester=requester,
        vocab=vocab,
        rotation=rotation[start:] + rotation[:start],
        normalize_lines=[f"{sp}UsernameToken"] + nested_sp,
        intersect_lines=[f"{sp}UsernameToken, {acme}UserToken"] + nested_sp
        + [f"  {acme}{password}, {acme}Wss10Token"],
    )
