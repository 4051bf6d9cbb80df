"""ARCH001 — package layering and import-cycle enforcement.

The repo's dependency structure is an explicit DAG, declared here as an
adjacency map (``ALLOWED_DEPS``): foundations at the bottom (``util``,
``obs``), the world model above them (``sim``, ``osn``), behaviours
above that (``ads``, ``farms``), the study orchestration layer
(``honeypot``, ``analysis``, ``detection``), and the operational shell
on top (``shard``, ``store``, ``core``, ``cli``).  An import that goes
*up* the DAG — say ``osn`` importing from ``honeypot`` — couples the
world model to its consumers and is refused outright, as is any new
module-level import cycle (found by SCC over the project import graph).

Growing the map is a deliberate one-line, code-reviewed change to this
file — which is the point: layer edges are architecture decisions, not
side effects of a convenient import.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ProjectRule, register_project

#: Direct dependencies each ``repro.*`` package may have (its own
#: package and the standard library are always allowed).  ``"*"`` marks
#: the top-tier shells that may import anything.
ALLOWED_DEPS: Dict[str, Tuple[str, ...]] = {
    # the failpoint registry sits below everything durable: any layer's
    # chokepoints may call hit(), and it imports nothing of the project
    "failpoints": (),
    "util": ("failpoints",),
    "obs": ("util",),
    "sim": ("obs", "util"),
    "osn": ("obs", "util"),
    "ads": ("obs", "osn", "sim", "util"),
    "farms": ("obs", "osn", "sim", "util"),
    "ckpt": ("failpoints", "obs", "util"),
    "honeypot": (
        "ads", "ckpt", "failpoints", "farms", "obs", "osn", "sim", "util",
    ),
    "analysis": ("farms", "honeypot", "obs", "osn", "util"),
    "detection": ("analysis", "honeypot", "obs", "osn", "util"),
    "core": ("analysis", "honeypot", "obs", "util"),
    "shard": ("ckpt", "failpoints", "honeypot", "obs", "util"),
    "store": ("analysis", "ckpt", "failpoints", "honeypot", "obs", "util"),
    # the linter is a standalone tool: nothing runtime may import it,
    # and it imports nothing runtime
    "lint": (),
    # top-tier shells: the CLI and the package root wire everything
    "cli": ("*",),
    "": ("*",),
}


def package_of(module: str) -> str:
    """The layering key of a ``repro.*`` module ('' for the root)."""
    parts = module.split(".")
    if parts[0] != "repro":
        return ""
    return parts[1] if len(parts) > 1 else ""


@register_project
class LayeringRule(ProjectRule):
    """ARCH001: imports must follow the declared dependency DAG."""

    code = "ARCH001"
    name = "layering"
    severity = Severity.ERROR
    description = (
        "import violates the package layering DAG (ALLOWED_DEPS in "
        "repro/lint/xmod/arch.py) or creates an import cycle"
    )

    def check_project(self, project) -> Iterator[Finding]:
        yield from self._layer_findings(project)
        yield from self._cycle_findings(project)

    # -- layering --------------------------------------------------------- #

    def _layer_findings(self, project) -> Iterator[Finding]:
        for module in sorted(project.modules):
            facts = project.modules[module]
            if not module.startswith("repro"):
                continue
            source_pkg = package_of(module)
            allowed = ALLOWED_DEPS.get(source_pkg)
            reported_unknown = False
            for imp in facts.imports:
                targets = self._target_packages(imp)
                if not targets:
                    continue
                if allowed is None:
                    if not reported_unknown:
                        reported_unknown = True
                        yield self.finding(
                            project,
                            facts.path,
                            imp.line,
                            f"package '{source_pkg}' is not declared in the "
                            "layering map; add it (and its allowed "
                            "dependencies) to ALLOWED_DEPS in "
                            "repro/lint/xmod/arch.py",
                        )
                    continue
                if "*" in allowed:
                    continue
                for target_pkg in targets:
                    if target_pkg == source_pkg or target_pkg in allowed:
                        continue
                    yield self.finding(
                        project,
                        facts.path,
                        imp.line,
                        f"'{source_pkg}' may not import from "
                        f"'{target_pkg}' (layering DAG: "
                        f"{source_pkg} -> {sorted(allowed)}); if this "
                        "edge is intentional, add it to ALLOWED_DEPS in "
                        "repro/lint/xmod/arch.py",
                    )

    @staticmethod
    def _target_packages(imp) -> List[str]:
        parts = imp.module.split(".")
        if parts[0] != "repro":
            return []
        if len(parts) > 1:
            return [parts[1]]
        # "from repro import core" names top-level members directly
        return [name for name in imp.names if name != "*"]

    # -- cycles ----------------------------------------------------------- #

    def _cycle_findings(self, project) -> Iterator[Finding]:
        edges: Dict[str, Set[str]] = {}
        edge_lines: Dict[Tuple[str, str], int] = {}
        for module, facts in project.modules.items():
            if not module.startswith("repro"):
                continue
            for imp in facts.imports:
                if imp.deferred:
                    continue  # lazy imports cannot participate in a cycle
                for target in self._target_modules(project, imp):
                    if target == module:
                        continue
                    edges.setdefault(module, set()).add(target)
                    edge_lines.setdefault((module, target), imp.line)

        for scc in _strongly_connected(edges):
            if len(scc) < 2:
                continue
            members = sorted(scc)
            cycle = " -> ".join(members + [members[0]])
            for module in members:
                facts = project.modules[module]
                for target in sorted(edges.get(module, ())):
                    if target not in scc:
                        continue
                    line = edge_lines.get((module, target), 1)
                    yield self.finding(
                        project,
                        facts.path,
                        line,
                        f"module-level import cycle: {cycle}; break it "
                        "with an inversion or a deferred import",
                    )

    @staticmethod
    def _target_modules(project, imp) -> List[str]:
        """Modules ``imp`` depends on for its *names*, not its machinery.

        ``from pkg import submodule`` needs only the submodule's body to
        have run, so the edge goes to the submodule — an edge to ``pkg``
        itself would make every package ``__init__`` that re-exports its
        children look like a cycle.  The package edge is kept only when
        some imported name is a genuine attribute of the package (or no
        names are given at all, i.e. ``import pkg``).
        """
        targets: List[str] = []
        attribute_names = False
        for name in imp.names:
            submodule = f"{imp.module}.{name}"
            if submodule in project.modules:
                targets.append(submodule)
            else:
                attribute_names = True
        if imp.module in project.modules and (attribute_names or not imp.names):
            targets.append(imp.module)
        return targets


def _strongly_connected(edges: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's SCC, iterative (module graphs can be deep)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[Set[str]] = []
    counter = [0]

    nodes = sorted(set(edges) | {t for ts in edges.values() for t in ts})

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(edges.get(node, ()))
            for offset in range(child_index, len(children)):
                child = children[offset]
                if child not in index:
                    work[-1] = (node, offset + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result
