"""Project model for the static-analysis engine.

Rules see the codebase through two objects:

:class:`ModuleInfo`
    one parsed file — dotted module name, source text, parsed AST,
    source lines, and the outgoing import edges with their line
    numbers;
:class:`ProjectIndex`
    the whole analysed file set — module lookup by dotted name and
    the import graph rules like R004 traverse.

:class:`AnalysisConfig` carries the project-policy knobs (which
modules are RNG-sanctioned, which are hot paths, the layering
contracts, where the metrics docs live) so tests can point the
engine at synthetic trees without editing rule code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class LayeringContract:
    """``root`` (a dotted module) must not reach ``forbidden`` prefixes."""

    root: str
    forbidden: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisConfig:
    """Project policy consumed by the rules.

    Every field has a default matching this repository's layout, and
    every field can be overridden — the rule tests build miniature
    projects in temporary directories and swap in their own module
    names.
    """

    #: Module prefixes allowed to call seeding entry points directly
    #: (R001).  Empty by default: all of ``src/repro`` must thread a
    #: ``numpy.random.Generator``.
    rng_sanctioned: tuple[str, ...] = ()

    #: Hot-path modules where wall-clock reads and set-order iteration
    #: are forbidden (R005).
    hot_modules: tuple[str, ...] = (
        "repro.models.fused",
        "repro.engine.chunking",
        "repro.core.ranking",
        "repro.core.estimators",
        "repro.metrics.ranking",
        "repro.kg.graph",
        "repro.core.candidates",
        "repro.core.sampling",
        "repro.core.easy_negatives",
    )

    #: Import-layering contracts (R004): the worker process must stay
    #: lean — nothing it imports may pull in the HTTP layer, the CLI,
    #: or the curses dashboard.
    layering: tuple[LayeringContract, ...] = (
        LayeringContract(
            root="repro.engine.worker",
            forbidden=("repro.serve", "repro.cli", "repro.obs.top"),
        ),
    )

    #: Path (relative to the project root) of the observability docs
    #: page whose metric table must match the code (R007).
    metrics_docs: str = "docs/observability.md"


@dataclass
class ImportEdge:
    """One import statement: ``module`` depends on ``target``."""

    target: str
    line: int


@dataclass
class ModuleInfo:
    """A single parsed Python file."""

    name: str
    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    is_package: bool = False
    imports: list[ImportEdge] = field(default_factory=list)

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()


def _module_name_for(path: Path) -> str:
    """Derive the dotted module name by walking up through packages."""
    parts: list[str] = []
    if path.name == "__init__.py":
        current = path.parent
    else:
        parts.append(path.stem)
        current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    if not parts:
        # an __init__.py whose parent chain has no packages
        parts.append(path.parent.name)
    return ".".join(reversed(parts))


def _collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> list[ImportEdge]:
    """Extract import edges, resolving relative imports against *module*."""
    edges: list[ImportEdge] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b.c` binds `a` but loads a, a.b, and a.b.c.
                pieces = alias.name.split(".")
                for depth in range(1, len(pieces) + 1):
                    edges.append(
                        ImportEdge(".".join(pieces[:depth]), node.lineno)
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: for a module `a.b.c`, `from . import x`
                # refers to package `a.b`, `from .. import x` to `a`.  In
                # a package __init__ the level counts from the package
                # itself, one step shallower.
                base_parts = module.split(".")
                strip = node.level - 1 if is_package else node.level
                if len(base_parts) < strip:
                    continue
                base = ".".join(base_parts[: len(base_parts) - strip])
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if not base:
                continue
            edges.append(ImportEdge(base, node.lineno))
            for alias in node.names:
                if alias.name == "*":
                    continue
                # `from a.b import c` may bind submodule a.b.c; record
                # the candidate — the graph keeps only edges whose
                # target is a known project module, so spurious
                # attribute candidates are dropped at query time.
                edges.append(ImportEdge(f"{base}.{alias.name}", node.lineno))
    return edges


class ProjectIndex:
    """All analysed modules plus the import graph over them."""

    def __init__(self, root: Path, modules: Sequence[ModuleInfo]) -> None:
        self.root = root
        self.modules: list[ModuleInfo] = list(modules)
        self._by_name: dict[str, ModuleInfo] = {
            module.name: module for module in self.modules
        }

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules)

    def get(self, name: str) -> ModuleInfo | None:
        return self._by_name.get(name)

    def module_names(self) -> frozenset[str]:
        return frozenset(self._by_name)

    def rel_paths(self) -> frozenset[str]:
        return frozenset(module.rel_path for module in self.modules)

    def project_imports(self, module: ModuleInfo) -> list[ImportEdge]:
        """Import edges from *module* into other analysed modules."""
        return [
            edge for edge in module.imports if edge.target in self._by_name
        ]


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            found.add(path)
    return sorted(found)


def build_index(paths: Iterable[Path], root: Path) -> ProjectIndex:
    """Parse every file under *paths* into a :class:`ProjectIndex`.

    Files that fail to parse are skipped here; the engine reports
    syntax errors separately so one broken file doesn't hide the rest
    of the analysis.
    """
    modules: list[ModuleInfo] = []
    for path in discover_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue
        name = _module_name_for(path)
        is_package = path.name == "__init__.py"
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        modules.append(
            ModuleInfo(
                name=name,
                path=path,
                rel_path=rel,
                source=source,
                tree=tree,
                is_package=is_package,
                imports=_collect_imports(tree, name, is_package),
            )
        )
    return ProjectIndex(root, modules)
