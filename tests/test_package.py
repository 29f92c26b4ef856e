"""The package's public surface and its dependencies."""
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wspolicy

SRC = Path(wspolicy.__file__).parent


# Run in a fresh interpreter, so every name goes through the package's
# first-use loader rather than an attribute an earlier import has set.
_RESOLVE_CHILD = """
import importlib, sys
import wspolicy
assert not [m for m in sys.modules if m.startswith("wspolicy.")], "eager import"
for name in wspolicy.__all__:
    module = wspolicy._MODULE_OF.get(name)
    home = importlib.import_module(f"wspolicy.{module or name}")
    assert getattr(wspolicy, name) is (home if module is None else getattr(home, name)), name
"""


def test_every_public_name_resolves_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", _RESOLVE_CHILD], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from wspolicy import *", namespace)
    assert set(wspolicy.__all__) <= set(namespace)
    assert set(wspolicy.__all__) <= set(dir(wspolicy))


@pytest.mark.parametrize(
    "name",
    ["enumerate_alternatives_oracle", "expand_optional", "OracleLimitError", "normal_forms_equal",
     "XmlDocument"],
)
def test_test_only_names_are_gone(name):
    assert name not in wspolicy.__all__
    with pytest.raises(AttributeError):
        getattr(wspolicy, name)


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_imports_only_stdlib_click_and_itself():
    allowed = set(sys.stdlib_module_names) | {"click", "wspolicy"}
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    foreign = {path.name: sorted(_imported_roots(path) - allowed) for path in modules}
    assert {name: roots for name, roots in foreign.items() if roots} == {}


_DIALECT_NAMESPACES = {"XS_NS", "WSDL_NS", "WSP_NS", "SAWSDL_NS"}


def _is_str_literal(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _fixed_name_builds(path: Path) -> tuple[list[int], list[int]]:
    """Lines calling ``QName`` with a dialect namespace constant or a literal
    local part, and lines calling ``.attr`` with a string literal."""
    qname_lines, attr_lines = [], []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        args = node.args + [keyword.value for keyword in node.keywords]
        if isinstance(node.func, ast.Name) and node.func.id == "QName":
            local = node.args[1:2] + [k.value for k in node.keywords if k.arg == "local"]
            namespaced = any(isinstance(a, ast.Name) and a.id in _DIALECT_NAMESPACES for a in args)
            if namespaced or any(map(_is_str_literal, local)):
                qname_lines.append(node.lineno)
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "attr":
            if any(map(_is_str_literal, args)):
                attr_lines.append(node.lineno)
    return qname_lines, attr_lines


def test_fixed_dialect_names_are_built_once_in_names():
    builds = {path.name: _fixed_name_builds(path) for path in sorted(SRC.glob("*.py"))}
    copies = {name: qnames for name, (qnames, _) in builds.items() if qnames and name != "names.py"}
    assert copies == {}
    literal_attrs = {name: attrs for name, (_, attrs) in builds.items() if attrs}
    assert literal_attrs == {}
    assert builds["names.py"][0], "the walk finds the constants in names.py"


def test_sources_parse_as_python_3_10():
    # requires-python and the CI matrix promise 3.10; a newer grammar (such
    # as except* or type parameter lists) would fail only on 3.10 itself.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Run in a fresh interpreter: import the CLI, or run one command, then print
# the wspolicy modules imported as the last stdout line.
_PRINT_MODULES = """
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "wspolicy")))
"""
_IMPORT_CHILD = "import json, sys\nimport wspolicy.cli\n" + _PRINT_MODULES
_COMMAND_CHILD = """
import json, sys
from wspolicy.cli import main
sys.argv = ["wspolicy", *sys.argv[1:]]
try:
    main()
except SystemExit as exc:
    assert not exc.code, exc.code
""" + _PRINT_MODULES

_BASE = {"wspolicy", "wspolicy.cli", "wspolicy.errors", "wspolicy.names"}
_FIXTURE = Path(__file__).parent / "fixtures" / "travel_agency.json"
_GOLDEN = Path(__file__).parent / "golden"
_FRAGMENT = "endpoint/TravelAgencyService/TravelAgencyEndpoint"


def _imported_by(tmp_path: Path, *args: str) -> set[str]:
    code = _COMMAND_CHILD if args else _IMPORT_CHILD
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_imports_no_layer(tmp_path):
    assert _imported_by(tmp_path) == _BASE


def test_generate_imports_no_reader(tmp_path):
    imported = _imported_by(tmp_path, "generate", str(_FIXTURE), "--output-dir", "out")
    assert imported - _BASE == {"wspolicy.algebra", "wspolicy.emit", "wspolicy.model",
                                "wspolicy.modelfile", "wspolicy.xmltree"}


def test_text_normalize_of_a_model_imports_no_xml_layer(tmp_path):
    imported = _imported_by(tmp_path, "normalize", f"{_FIXTURE}#{_FRAGMENT}")
    assert imported - _BASE == {"wspolicy.algebra", "wspolicy.model", "wspolicy.modelfile"}


def test_intersect_of_xml_sources_imports_no_model_file_or_writer(tmp_path):
    for name in ("TravelAgency.wsdl", "ws-semanticsecuritypolicy.xsd"):
        shutil.copy(_GOLDEN / name, tmp_path / name)
    (tmp_path / "requester.xml").write_text(
        '<wsp:Policy xmlns:wsp="http://www.w3.org/ns/ws-policy" '
        'xmlns:sp="http://emi/ws-semanticsecuritypolicy.xsd"><sp:UsernameToken><wsp:Policy>'
        '<sp:HashPassword/><sp:WssUsernameToken10/></wsp:Policy></sp:UsernameToken></wsp:Policy>')
    imported = _imported_by(tmp_path, "intersect", "TravelAgency.wsdl", "requester.xml")
    assert imported - _BASE == {"wspolicy.algebra", "wspolicy.model", "wspolicy.reader",
                                "wspolicy.xmltree"}


def test_no_module_declares_a_dataclass():
    # The value classes are slotted classes on names.Value; dataclasses is
    # only the home of the FrozenInstanceError they raise.
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                names = [alias.name for alias in node.names if alias.name != "FrozenInstanceError"]
            elif isinstance(node, ast.Name) and node.id == "dataclass":
                names = [node.id]
            elif isinstance(node, ast.Attribute) and node.attr == "dataclass":
                names = [node.attr]
            else:
                continue
            uses.setdefault(path.name, []).extend(names)
    assert {name: found for name, found in uses.items() if found} == {}
