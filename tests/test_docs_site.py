"""Structural guard for the mkdocs site.

CI builds the site with ``mkdocs build --strict``; this test keeps the
same invariants enforceable in environments without mkdocs installed:
the nav and the docs/ directory agree, and every internal markdown link
resolves.  A broken page name fails here in the tier-1 suite instead of
only in the docs CI job.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"

LINK_PATTERN = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")


def _nav_targets() -> list[str]:
    import yaml

    config = yaml.safe_load(MKDOCS_YML.read_text(encoding="utf-8"))
    assert config["site_name"]
    targets: list[str] = []

    def walk(node) -> None:
        if isinstance(node, str):
            targets.append(node)
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)

    walk(config["nav"])
    return targets


def test_nav_targets_exist():
    targets = _nav_targets()
    assert targets, "mkdocs nav is empty"
    for target in targets:
        assert (DOCS_DIR / target).is_file(), f"nav references missing page {target}"


def test_every_docs_page_is_in_the_nav():
    targets = set(_nav_targets())
    pages = {p.relative_to(DOCS_DIR).as_posix() for p in DOCS_DIR.rglob("*.md")}
    orphans = pages - targets
    assert not orphans, f"docs pages missing from mkdocs nav: {sorted(orphans)}"


def test_internal_markdown_links_resolve():
    broken: list[str] = []
    for page in DOCS_DIR.rglob("*.md"):
        for match in LINK_PATTERN.finditer(page.read_text(encoding="utf-8")):
            href = match.group(1)
            if href.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = href.split("#", 1)[0]
            if not path.endswith(".md"):
                continue
            if not (page.parent / path).is_file():
                broken.append(f"{page.name} -> {href}")
    assert not broken, f"broken internal links: {broken}"


def test_docs_cover_the_required_guides():
    """The ISSUE-mandated pages: architecture, reproduction map, store."""
    architecture = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
    for layer in ("repro.kg", "repro.models", "repro.core", "repro.engine", "repro.store"):
        assert layer in architecture, f"architecture overview misses {layer}"

    reproduce = (DOCS_DIR / "reproduce.md").read_text(encoding="utf-8")
    bench_names = {
        p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    }
    unmapped = {name for name in bench_names if name not in reproduce}
    assert not unmapped, f"reproduce.md misses benchmarks: {sorted(unmapped)}"

    store = (DOCS_DIR / "store.md").read_text(encoding="utf-8")
    assert "warm" in store.lower() and "journal" in store.lower()


def test_serve_guide_documents_the_api():
    """The serving guide covers the API schema and the batching knobs."""
    serve = (DOCS_DIR / "serve.md").read_text(encoding="utf-8")
    for endpoint in ("/v1/rank", "/v1/score", "/v1/models", "/healthz"):
        assert endpoint in serve, f"serve.md misses endpoint {endpoint}"
    for knob in ("--max-batch", "--model-path", "--save-model"):
        assert knob in serve, f"serve.md misses knob {knob}"
    assert "micro-batch" in serve.lower()
    assert "bitwise-identical" in serve

    architecture = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
    assert "repro.serve" in architecture

    cli = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
    assert "## `serve`" in cli
