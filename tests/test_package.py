"""The package surface: the README's library example, ``fdlb.__all__``, and imports.

    python3 -m pytest tests/test_package.py
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import fdlb

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fdlb").glob("*.py"))


def test_readme_library_example_runs_and_names_every_export(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # the same answers as the README's `explain` and `complete` examples on this base
    assert namespace["sat"].instance_interval("tab_3", namespace["query"]).lo == Fraction(3, 5)
    assert set(namespace["report"].undecided) == {("tab_3", "InexpensiveTablet"), ("tab_2", "LightweightTablet")}
    for name in fdlb.__all__:
        assert getattr(fdlb, name) is not None
        assert re.search(rf"\b{name}\b", readme), f"fdlb.__all__ exports {name}, which README.md never names"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    """Every name the code reads, including names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports_in_the_package():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def test_no_dataclasses_import_in_the_package():
    # the package's records are NamedTuples: a dataclass costs start-up time in every ``fdlb`` process
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, fdlb.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "[]"


def test_importing_the_cli_and_writing_text_loads_no_json(fixtures_dir):
    kb, ubox = fixtures_dir / "tablet_complete.fdlb", fixtures_dir / "expert1.ubox"
    commands = [
        ["check", kb],
        ["rank", kb, "--ubox", ubox],
        ["complete", kb, "--ubox", ubox],
        ["explain", kb, "-i", "tab_3", "-c", "LightweightTablet"],
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, fdlb.cli; code = fdlb.cli.main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'json'), file=sys.stderr)"
    )
    for argv in commands:
        child = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True, text=True)
        assert child.stderr.splitlines()[-1] in ("0 []", "3 []"), (argv, child.stderr)


def _messages(tree):
    """(line, constant text) of each message an error, ``error`` or ``warn`` call is given; ``{}`` marks a value."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", ""))
        message = node.args[0]
        if name.endswith("Error") or name in ("error", "warn"):
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                yield node.lineno, message.value
            elif isinstance(message, ast.JoinedStr):
                yield node.lineno, "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in message.values)


def test_every_message_is_written_once_in_the_package():
    # a rule checked in two places would carry its message twice
    found = [(text, f"{path.name}:{line}") for path in SOURCES
             for line, text in _messages(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) > 20
    written = Counter(text for text, _ in found)
    assert [(where, text) for text, where in found if written[text] > 1] == []


# Names defined in ``src/fdlb`` that are kept for a reason beyond their
# callers there, each with that reason: top-level functions and classes by
# name, methods and properties as ``Class.member`` (dunders are exempt).
# Every name without a caller there must be listed.
KEPT_FOR_A_STATED_REASON = {
    "ParseResult.ok": "the benchmark's tests (perfbench/tests/test_perfbench.py) read it",
    "SaturatedKb.instance_interval": "the README's Library section offers it as the one-pair query",
    "SaturatedKb.explain": "the README's Library section offers it as the derivations behind a bound",
    "build_kb": "the checked entry point for a base built in code; the README's Library section names it",
}


def _reference_counts(node) -> Counter:
    """How often the code under ``node`` reads each name, as a name, an attribute or an import."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            counts.update(alias.name for alias in child.names)
    for annotation in _annotations(node):
        for child in ast.walk(annotation):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                counts.update(_reference_counts(ast.parse(child.value, mode="eval")))
    return counts


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of each method and property."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def test_every_top_level_name_has_a_caller_or_a_stated_reason():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    everywhere = sum(map(_reference_counts, trees), Counter())
    defined, uncalled = set(), set()
    for tree in trees:
        for name, node in _definitions(tree):
            defined.add(name)
            if everywhere[node.name] == _reference_counts(node)[node.name]:  # its own body does not count
                uncalled.add(name)
    assert uncalled <= set(KEPT_FOR_A_STATED_REASON), sorted(uncalled - set(KEPT_FOR_A_STATED_REASON))
    assert set(KEPT_FOR_A_STATED_REASON) <= defined, sorted(set(KEPT_FOR_A_STATED_REASON) - defined)
