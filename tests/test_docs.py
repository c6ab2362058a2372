"""Documentation hygiene: links resolve, code snippets cannot rot.

Pure-stdlib checks over ``README.md`` and the ``docs/`` tree (the CI
``docs`` job runs exactly this file):

* every relative markdown link points at a file or directory that
  exists in the repo;
* every fenced ``python`` code block parses (snippets with syntax rot
  fail here);
* every import statement inside those blocks resolves against the real
  package, and every imported name exists — so a renamed public class
  breaks the doc that still references it;
* the engine table of ``docs/tuning.md`` lists exactly the keyword-only
  parameters of ``EngineCore.__init__``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

MD_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").rglob("*.md")],
    key=lambda p: str(p.relative_to(REPO)),
)

#: ``[text](target)`` — good enough for our docs; images use the same shape.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def iter_links(path: Path):
    for target in LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


def iter_python_blocks(path: Path):
    for i, block in enumerate(PYTHON_BLOCK.findall(path.read_text())):
        yield i, block


def md_id(path: Path) -> str:
    return str(path.relative_to(REPO))


@pytest.mark.parametrize("md_file", MD_FILES, ids=md_id)
def test_relative_links_resolve(md_file):
    missing = []
    for target in iter_links(md_file):
        resolved = (md_file.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, f"{md_id(md_file)} has dead links: {missing}"


@pytest.mark.parametrize("md_file", MD_FILES, ids=md_id)
def test_python_blocks_parse(md_file):
    for i, block in iter_python_blocks(md_file):
        try:
            ast.parse(block)
        except SyntaxError as err:
            pytest.fail(
                f"{md_id(md_file)} python block #{i} does not parse: {err}"
            )


@pytest.mark.parametrize("md_file", MD_FILES, ids=md_id)
def test_python_block_imports_resolve(md_file):
    """Imports in doc snippets must name real modules and attributes."""
    for i, block in iter_python_blocks(md_file):
        tree = ast.parse(block)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:  # relative import in a snippet: skip
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name) or (
                        importlib.util.find_spec(
                            f"{node.module}.{alias.name}"
                        )
                        is not None
                    ), (
                        f"{md_id(md_file)} python block #{i}: "
                        f"{node.module!r} has no attribute {alias.name!r}"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    importlib.import_module(alias.name)


def test_readme_names_every_docs_page():
    """The README map must link the four top-level docs pages."""
    readme = (REPO / "README.md").read_text()
    for page in (
        "docs/architecture.md",
        "docs/tuning.md",
        "docs/benchmarks.md",
        "docs/internals/",
    ):
        assert page in readme, f"README.md does not link {page}"


def test_internals_index_covers_every_stub():
    """Every internals stub is reachable from the internals index."""
    index = (REPO / "docs" / "internals" / "README.md").read_text()
    for stub in sorted((REPO / "docs" / "internals").glob("*.md")):
        if stub.name == "README.md":
            continue
        assert f"({stub.name})" in index, (
            f"docs/internals/README.md does not link {stub.name}"
        )


def test_tuning_engine_table_matches_the_constructor():
    """One row per ``EngineCore`` knob: none undocumented, none left over."""
    from repro.serving.engine import EngineCore

    tuning = (REPO / "docs" / "tuning.md").read_text()
    section = tuning.split("## Engine", 1)[1].split("\n## ", 1)[0]
    documented = [
        knob
        for row in re.findall(r"^\| (`[^|]*) \|", section, flags=re.MULTILINE)
        for knob in re.findall(r"`(\w+)`", row)
    ]
    parameters = [
        name
        for name, parameter in inspect.signature(EngineCore.__init__).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert sorted(documented) == sorted(parameters)
