"""Simulation-hygiene rules: HYG001-HYG004.

Not determinism violations per se, but the failure modes that keep
producing them: shared mutable default arguments (state leaking between
calls), broad exception handlers (swallowing the loud failures the
resilience layer depends on), ``__dict__``-carrying dataclasses on the
hot per-event paths, and per-element writes into the columnar stores
inside loops (the scalar anti-pattern the columnar refactor removed).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.findings import Severity
from repro.lint.rules import Finding, ModuleContext, Rule, register

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


@register
class MutableDefaultRule(Rule):
    """HYG001: mutable default argument values."""

    code = "HYG001"
    name = "mutable-default"
    severity = Severity.ERROR
    description = (
        "mutable default argument (list/dict/set); defaults are shared "
        "across calls — use None and initialise inside"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                label = self._mutable_label(default)
                if label is not None:
                    yield self.finding(
                        module,
                        default,
                        f"mutable default {label} in {node.name}(); the "
                        "object is created once and shared by every call — "
                        "default to None and build it inside",
                    )

    def _mutable_label(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.List):
            return "[]"
        if isinstance(node, ast.Dict):
            return "{}"
        if isinstance(node, (ast.Set, ast.SetComp, ast.ListComp, ast.DictComp)):
            return "literal"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        ):
            return f"{node.func.id}()"
        return None


_BROAD_NAMES = frozenset({"Exception", "BaseException"})


@register
class BroadExceptRule(Rule):
    """HYG002: bare or broad ``except`` without a re-raise."""

    code = "HYG002"
    name = "broad-except"
    severity = Severity.ERROR
    description = (
        "bare/broad except (Exception/BaseException) that does not "
        "re-raise; catch the specific failure instead"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if self._reraises(node):
                continue  # cleanup-then-reraise is the accepted pattern
            yield self.finding(
                module,
                node,
                f"{broad} swallows every failure; catch the specific "
                "exception, or re-raise after cleanup",
            )

    def _broad_name(self, type_node: Optional[ast.AST]) -> Optional[str]:
        if type_node is None:
            return "bare 'except:'"
        names = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in _BROAD_NAMES:
                return f"'except {name.id}:'"
        return None

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
        return False


#: Sub-packages whose modules sit on the per-event hot path; their
#: dataclasses must opt into ``slots`` (no per-instance ``__dict__``).
HOT_PACKAGES: Tuple[str, ...] = ("repro.osn", "repro.sim", "repro.farms")


@register
class SlotlessDataclassRule(Rule):
    """HYG003: non-``slots`` dataclasses in hot modules."""

    code = "HYG003"
    name = "slotless-dataclass"
    severity = Severity.WARNING
    description = (
        "dataclass without slots=True in a hot package (osn/sim/farms); "
        "per-instance __dict__ costs memory and attribute-lookup time"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not any(
            module.module_name == pkg or module.module_name.startswith(pkg + ".")
            for pkg in HOT_PACKAGES
        ):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if self._is_slotless_dataclass(decorator):
                    yield self.finding(
                        module,
                        node,
                        f"dataclass {node.name} in hot module "
                        f"{module.module_name} lacks slots=True",
                    )
                    break

    def _is_slotless_dataclass(self, decorator: ast.AST) -> bool:
        def is_dataclass_ref(node: ast.AST) -> bool:
            if isinstance(node, ast.Name):
                return node.id == "dataclass"
            return isinstance(node, ast.Attribute) and node.attr == "dataclass"

        if is_dataclass_ref(decorator):
            return True  # @dataclass with no arguments
        if isinstance(decorator, ast.Call) and is_dataclass_ref(decorator.func):
            for keyword in decorator.keywords:
                if keyword.arg == "slots":
                    return not (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    )
            return True  # @dataclass(...) without a slots keyword
        return False


#: Constructors of the columnar stores: bindings assigned from these are
#: treated as columnar receivers by HYG004.
_COLUMNAR_CONSTRUCTORS = frozenset({"TypedVector", "LikeLog", "ProfileStore"})

#: Per-element write methods on those stores.  Batch entry points
#: (``extend``, ``record_arrays``, ``add_many``) are the sanctioned path.
_SCALAR_WRITE_METHODS = frozenset({"append", "record", "add"})


def _dotted_key(node: ast.AST) -> Optional[str]:
    """``self.likes`` / ``vec`` / ``self._users`` -> a dotted lookup key."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@register
class ColumnarScalarWriteRule(Rule):
    """HYG004: per-element appends into columnar stores inside loops.

    A loop of ``store.append(x)`` / ``log.record(e)`` rebuilds exactly
    the per-item write path the columnar stores exist to avoid — each
    call pays Python dispatch and possibly array growth for one element.
    Receivers are recognised syntactically: any name or ``self.<attr>``
    assigned from a known columnar constructor (``TypedVector``,
    ``LikeLog``, ``ProfileStore``) anywhere in the module.  Legitimate
    incremental paths (the monitor's one-event-at-a-time recording)
    carry an ``allow-HYG004`` suppression with a justification.

    Aliasing the bound method first (``record = log.record``) hides the
    receiver from this rule — keep scalar writes spelled out so the
    anti-pattern stays greppable and lintable.
    """

    code = "HYG004"
    name = "columnar-scalar-write"
    severity = Severity.WARNING
    description = (
        "per-element append/record into a columnar store inside a loop; "
        "batch the rows and use the store's bulk entry point"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        receivers = self._columnar_bindings(module.tree)
        if not receivers:
            return
        seen: Set[int] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if id(node) in seen or not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    not isinstance(func, ast.Attribute)
                    or func.attr not in _SCALAR_WRITE_METHODS
                ):
                    continue
                key = _dotted_key(func.value)
                if key is None or key not in receivers:
                    continue
                seen.add(id(node))
                yield self.finding(
                    module,
                    node,
                    f"per-element .{func.attr}() on columnar store "
                    f"{key!r} inside a loop; collect the batch and call "
                    "the bulk write once",
                )

    def _columnar_bindings(self, tree: ast.Module) -> Dict[str, str]:
        """Keys (``self.attr`` or names) bound to columnar constructors."""
        bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            value = None
            targets = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _COLUMNAR_CONSTRUCTORS
            ):
                continue
            for target in targets:
                key = _dotted_key(target)
                if key is not None:
                    bindings[key] = value.func.id
        return bindings
