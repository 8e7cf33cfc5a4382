"""Every callable under ``src/`` has a caller outside the tests.

An AST census over every ``def`` and ``class`` in ``src/repro``.  A
definition counts as called when ``src/``, ``benchmarks/`` or
``examples/`` refers to it anywhere but inside its own body.  Neither
``__all__`` (strings) nor a package re-export (an import, not a use)
counts.  Names are resolved through imports, so ``export.to_json`` and
``event.to_json()`` are different callables:

- a module-level function or class is referred to by a name that the
  imports (re-exports included) resolve to its qualified name;
- a method is referred to by a resolved ``Class.method``, or by any
  attribute of that name on an object the walk cannot type
  (``self.method``, ``obj.method``).

The top-level surface (``repro.__all__`` and the public methods of its
classes) follows the deprecation policy of DESIGN.md section 10, so a
surface callable without a caller cannot simply go: it is listed in
``SURFACE_PENDING`` until its outcome is decided.  Everything else
without a caller must either go or be listed in ``ALLOWED`` with its
reason.

``python -m tests.test_census`` prints both lists with their test-only
reference counts.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")

#: Definitions kept without a non-test caller, each with its reason.
ALLOWED = {
    "repro.obs.server._Handler.do_GET": "http.server callback",
    "repro.obs.server._Handler.log_message": "http.server callback",
    "repro.core.chunking.lemma1_tail_bound":
        "test reference: Theorem 1's chunk size is checked against it",
    "repro.core.testing.log_density_spread":
        "test reference: the fit test's spread is checked against it",
    "repro.core.merging.rank_merge_pairs":
        "pinned by benchmarks/e2e/spans.py (an ENTRY_POINTS span)",
    "repro.simulation.engine.SimulationEngine.schedule_at":
        "the engine benchmarks/e2e/spans.py patches; goes with it (item 13)",
    "repro.obs.observer.NullObserver.span_event":
        "top-level surface: NULL_OBSERVER answers Observer.span_event",
}

#: Top-level surface callables without a non-test caller (ROADMAP item
#: 20 decides each one's outcome under the deprecation policy).
SURFACE_PENDING = {
    qualname: "item 20: outcome pending"
    for qualname in (
        "repro.core.chunking.iter_chunks",
        "repro.core.cludistream.CluDistream.evolving_query",
        "repro.core.cludistream.CluDistream.site_mixtures",
        "repro.core.cludistream.CluDistream.total_bytes_sent",
        "repro.core.cludistream.CluDistream.total_messages_sent",
        "repro.core.coordinator.Coordinator.check_invariants",
        "repro.core.coordinator.Coordinator.full_mixture",
        "repro.core.coordinator.Coordinator.landmark_mixture",
        "repro.core.gaussian.Gaussian.precision",
        "repro.core.mixture.GaussianMixture.component_log_pdf",
        "repro.core.mixture.GaussianMixture.max_component_log_likelihood",
        "repro.core.mixture.GaussianMixture.single",
        "repro.core.mixture.GaussianMixture.weighted_log_pdf",
        "repro.core.mixture.GaussianMixture.with_components",
        "repro.core.scoring.AnomalyDetector.recalibrate",
        "repro.core.selection.select_k",
        "repro.obs.observer.Observer.span_event",
        "repro.runtime.accounting.DeliveryAccounting.delivered_exactly_once",
        "repro.runtime.accounting.DeliveryAccounting.lost",
    )
}


@dataclass
class Definition:
    qualname: str
    kind: str  # "function", "class" or "method"
    path: Path
    line: int
    method: str | None = None  # the bare name of a method


@dataclass
class Census:
    definitions: dict[str, Definition] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    # qualname -> enclosing definition of every resolved reference
    resolved: dict[str, list[tuple[str, ...]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    # bare attribute name -> enclosing definitions of every untyped use
    attributes: dict[str, list[tuple[str, ...]]] = field(
        default_factory=lambda: defaultdict(list)
    )


def module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if not is_package:
        base.pop()
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Local name -> qualified target, for every import in the file."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, is_package, node)
            for alias in node.names:
                table[alias.asname or alias.name] = f"{source}.{alias.name}"
    return table


def _collect_definitions(census: Census, path: Path, module: str, tree) -> None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__"):
                continue
            qualname = f"{module}.{node.name}"
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            census.definitions[qualname] = Definition(
                qualname, kind, path, node.lineno
            )
            if kind != "class":
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name.startswith("__") and item.name.endswith("__"):
                        continue
                    census.definitions[f"{qualname}.{item.name}"] = Definition(
                        f"{qualname}.{item.name}",
                        "method",
                        path,
                        item.lineno,
                        item.name,
                    )


class _References(ast.NodeVisitor):
    def __init__(self, census: Census, module: str, imports, top_level) -> None:
        self.census = census
        self.module = module
        self.imports = imports
        self.top_level = top_level
        self.stack: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        parent = self.stack[-1] if self.stack else self.module
        self.stack.append(f"{parent}.{node.name}")
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def resolve(self, node) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in self.imports:
                return self.imports[node.id]
            if node.id in self.top_level:
                return f"{self.module}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def visit_Name(self, node: ast.Name) -> None:
        target = self.resolve(node)
        if target is not None:
            self.census.resolved[target].append(tuple(self.stack))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        target = self.resolve(node)
        if target is not None:
            self.census.resolved[target].append(tuple(self.stack))
        base = self.resolve(node.value)
        if base is None or canonical(self.census, base) in self.census.definitions:
            # An untyped object, or a class whose method may be inherited.
            self.census.attributes[node.attr].append(tuple(self.stack))
        self.visit(node.value)


def canonical(census: Census, qualname: str) -> str:
    """Follow re-exports (``repro.obs.to_json`` -> ``repro.obs.export.to_json``)."""
    for _ in range(16):
        parts = qualname.split(".")
        for cut in range(len(parts), 0, -1):
            head = ".".join(parts[:cut])
            if head in census.aliases and census.aliases[head] != head:
                qualname = ".".join([census.aliases[head], *parts[cut:]])
                break
        else:
            return qualname
    return qualname


def build(root: Path = ROOT, callers=CALLERS) -> Census:
    census = Census()
    parsed = []
    for directory in ("src", *[c for c in callers if c != "src"]):
        base = root / "src" if directory == "src" else root
        for path in sorted((root / directory).rglob("*.py")):
            module = module_name(path, base)
            tree = ast.parse(path.read_text(), str(path))
            is_package = path.name == "__init__.py"
            imports = _imports(tree, module, is_package)
            parsed.append((directory, path, module, tree, imports))
            if directory == "src":
                _collect_definitions(census, path, module, tree)
                for node in tree.body:
                    if isinstance(node, ast.ImportFrom):
                        for alias in node.names:
                            local = f"{module}.{alias.asname or alias.name}"
                            census.aliases[local] = imports[
                                alias.asname or alias.name
                            ]
    for directory, path, module, tree, imports in parsed:
        if directory not in callers:
            continue
        top_level = {
            node.name
            for node in tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        _References(census, module, imports, top_level).visit(tree)
    return census


def _surface(census: Census) -> set[str]:
    """``repro.__all__`` and the public methods of its classes."""
    roots = {canonical(census, f"repro.{name}") for name in repro.__all__}
    return roots | {
        qualname
        for qualname, definition in census.definitions.items()
        if definition.kind == "method"
        and qualname.rsplit(".", 1)[0] in roots
        and not definition.method.startswith("_")
    }


def _outside(qualname: str, stacks) -> int:
    """References not made from inside ``qualname``'s own body."""
    return sum(
        1
        for stack in stacks
        if not any(
            frame == qualname or frame.startswith(qualname + ".")
            for frame in stack
        )
    )


def references(census: Census) -> dict[str, int]:
    """Reference count of every definition, its own body left out."""
    by_target = defaultdict(list)
    for target, stacks in census.resolved.items():
        by_target[canonical(census, target)].extend(stacks)
    counts = {}
    for qualname, definition in census.definitions.items():
        stacks = list(by_target[qualname])
        if definition.kind == "method":
            stacks += census.attributes[definition.method]
        counts[qualname] = _outside(qualname, stacks)
    return counts


def hits(
    root: Path = ROOT, callers=CALLERS, on_surface: bool = False
) -> list[Definition]:
    """Definitions with no reference in ``callers``: those off the
    top-level surface, or with ``on_surface`` those on it."""
    census = build(root, callers)
    surface = _surface(census)
    counts = references(census)
    return [
        definition
        for qualname, definition in sorted(census.definitions.items())
        if (qualname in surface) == on_surface and not counts[qualname]
    ]


@pytest.fixture(scope="module")
def found() -> list[Definition]:
    return hits()


@pytest.fixture(scope="module")
def found_on_surface() -> list[Definition]:
    return hits(on_surface=True)


def test_every_callable_below_the_surface_has_a_caller(found):
    unexplained = [d.qualname for d in found if d.qualname not in ALLOWED]
    assert not unexplained, (
        "callables with no caller in src/, benchmarks/ or examples/ "
        "(delete them, or add them to ALLOWED with a reason):\n  "
        + "\n  ".join(unexplained)
    )


def test_every_allowed_entry_is_still_a_hit(found):
    stale = sorted(set(ALLOWED) - {d.qualname for d in found})
    assert not stale, f"ALLOWED entries that now have a caller or are gone: {stale}"


def test_every_surface_callable_has_a_caller(found_on_surface):
    unexplained = [
        d.qualname for d in found_on_surface if d.qualname not in SURFACE_PENDING
    ]
    assert not unexplained, (
        "top-level callables with no caller in src/, benchmarks/ or "
        "examples/ (give them one, or list them in SURFACE_PENDING):\n  "
        + "\n  ".join(unexplained)
    )


def test_every_pending_surface_entry_is_still_a_hit(found_on_surface):
    stale = sorted(set(SURFACE_PENDING) - {d.qualname for d in found_on_surface})
    assert not stale, (
        f"SURFACE_PENDING entries that now have a caller or are gone: {stale}"
    )


def test_a_resolved_name_is_not_a_method_of_the_same_name(tmp_path):
    # ``export.to_json`` and ``event.to_json()`` are different callables:
    # a bare name grep would count the second as a use of the first.
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.export import to_json\n")
    (package / "export.py").write_text("def to_json(x):\n    return x\n")
    (package / "trace.py").write_text(
        "class Event:\n"
        "    def to_json(self):\n"
        "        return ''\n"
        "def dump(events):\n"
        "    return [e.to_json() for e in events]\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "run.py").write_text(
        "from pkg.trace import dump\nprint(dump([]))\n"
    )
    found = {d.qualname for d in hits(tmp_path, ("src", "examples"))}
    assert "pkg.export.to_json" in found
    assert "pkg.trace.Event.to_json" not in found


def main() -> None:
    in_tests = references(build(ROOT, ("tests",)))
    for title, on_surface, reasons in (
        ("below the top-level surface", False, ALLOWED),
        ("on the top-level surface", True, SURFACE_PENDING),
    ):
        print(f"# {title}")
        for definition in hits(on_surface=on_surface):
            path = definition.path.relative_to(ROOT)
            print(
                f"{definition.qualname:<60} {path}:{definition.line}  "
                f"tests={in_tests[definition.qualname]}  "
                f"{reasons.get(definition.qualname, '')}"
            )


if __name__ == "__main__":
    main()
