"""Module-level shared-mutable-state escape analysis (rule SNIC010).

The ROADMAP item 2 shard refactor will fork the simulation across
``multiprocessing`` workers; any module-level mutable that is written
after import time silently diverges between shards and breaks the
byte-identical-merge contract.  This pass inventories every module-level
binding and classifies it:

* **shard-safe** — immutable values (constants, tuples, frozensets,
  compiled regexes), or mutables that are only ever written at module
  top level (import-time initialisation replays identically in every
  worker);
* **shard-unsafe** — mutables written from *function* scope anywhere in
  the program (the defining module or a cross-module alias): mutator
  method calls, subscript stores/deletes, ``global`` rebinds, augmented
  assignments — plus handles to process-global singletons
  (``get_emitter``/``get_registry``/``get_tracer``), whose interior
  state is exactly what shards must not share.

Known approximations (DESIGN.md §1.10): aliasing through locals
(``x = FLOW_TABLE; x[k] = v``) and mutation behind ``getattr`` are
invisible; attribute mutation (``obj.field = ...``) on a module-level
instance is treated as mutation of that instance.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow.graph import ProgramGraph

#: Calls whose results are immutable (or immutable-enough: a compiled
#: regex has no user-visible mutable state).
_IMMUTABLE_CALLS = frozenset({
    "frozenset", "tuple", "int", "float", "str", "bytes", "bool",
    "complex", "compile", "namedtuple", "TypeVar", "Path",
})

#: Factories returning handles to process-global singletons.  The
#: handle itself may never be rebound, but every method call routes to
#: state shared across the process — per-shard divergence by
#: construction.
_SINGLETON_FACTORIES = frozenset({
    "get_emitter", "get_registry", "get_tracer",
})

#: Method names that mutate their receiver.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
    "sort", "reverse", "write", "inc", "dec", "set", "observe",
    "register", "emit",
})


#: The ``:<line>`` of a ``"<modname>:<line> <evidence>"`` reason.
_SITE_LINE = re.compile(r"^([\w.]+):\d+ ")


@dataclass
class ModuleStateInfo:
    """One module-level binding and its shard-safety classification."""

    modname: str
    name: str
    lineno: int
    col: int
    kind: str                     # "dict literal", "call:get_emitter", ...
    mutable: bool
    shard_safe: bool
    reasons: List[str] = field(default_factory=list)
    #: modules that import this name (``from m import NAME``), sorted.
    aliases: List[str] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        return f"{self.modname}.{self.name}"

    def as_dict(self) -> Dict[str, object]:
        """The manifest entry, free of line numbers so moved code
        leaves it unchanged (reasons differing only by line merge)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "mutable": self.mutable,
            "classification": "shard-safe" if self.shard_safe
            else "shard-unsafe",
            "reasons": list(dict.fromkeys(
                _SITE_LINE.sub(r"\1 ", reason) for reason in self.reasons)),
            "aliases": list(self.aliases),
        }


def _value_kind(node: Optional[ast.AST]) -> Tuple[str, bool, str]:
    """(kind label, is-mutable, singleton factory name or "")."""
    if node is None:
        return "annotation-only", False, ""
    if isinstance(node, ast.Constant):
        return f"constant {type(node.value).__name__}", False, ""
    if isinstance(node, ast.Tuple):
        if all(_value_kind(el)[1] is False for el in node.elts):
            return "tuple literal", False, ""
        return "tuple of mutables", True, ""
    if isinstance(node, ast.List):
        return "list literal", True, ""
    if isinstance(node, ast.Dict):
        return "dict literal", True, ""
    if isinstance(node, ast.Set):
        return "set literal", True, ""
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return "comprehension", True, ""
    if isinstance(node, ast.Call):
        callee = ""
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee in _SINGLETON_FACTORIES:
            return f"call:{callee}", True, callee
        if callee in _IMMUTABLE_CALLS:
            return f"call:{callee}", False, ""
        return f"call:{callee or '?'}", True, ""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "alias", True, ""
    if isinstance(node, ast.BinOp):
        return "expression", False, ""
    return type(node).__name__.lower(), True, ""


@dataclass
class _Mutation:
    """Evidence that a binding is written from function scope."""

    modname: str
    lineno: int
    what: str

    def text(self) -> str:
        return f"{self.modname}:{self.lineno} {self.what}"


class EscapeAnalysis:
    """Classifies every module-level binding across the program."""

    def __init__(self, graph: ProgramGraph) -> None:
        self.graph = graph
        #: (defining module, name) -> info
        self.bindings: Dict[Tuple[str, str], ModuleStateInfo] = {}

    def run(self) -> List[ModuleStateInfo]:
        for modname in sorted(self.graph.modules):
            self._collect_bindings(modname)
        self._collect_aliases()
        mutations = self._collect_mutations()
        for key, info in sorted(self.bindings.items()):
            evidence = mutations.get(key, [])
            self._classify(info, evidence)
        return [info for _, info in sorted(self.bindings.items())]

    # ------------------------------------------------------------------

    def _collect_bindings(self, modname: str) -> None:
        module = self.graph.modules[modname]
        if not isinstance(module.tree, ast.Module):
            return
        for node in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if (modname, target.id) in self.bindings:
                    continue  # first binding wins; rebinds are evidence
                kind, mutable, singleton = _value_kind(value)
                info = ModuleStateInfo(
                    modname=modname, name=target.id,
                    lineno=node.lineno, col=node.col_offset + 1,
                    kind=kind, mutable=mutable, shard_safe=True)
                if singleton:
                    info.reasons.append(
                        f"handle from process-global singleton factory "
                        f"{singleton}()")
                self.bindings[(modname, target.id)] = info

    def _collect_aliases(self) -> None:
        for importer, names in sorted(self.graph.imported_names.items()):
            for _local, (src_mod, src_name) in sorted(names.items()):
                info = self.bindings.get((src_mod, src_name))
                if info is not None and importer not in info.aliases:
                    info.aliases.append(importer)
        for info in self.bindings.values():
            info.aliases.sort()

    # ------------------------------------------------------------------

    def _collect_mutations(self) -> Dict[Tuple[str, str], List[_Mutation]]:
        out: Dict[Tuple[str, str], List[_Mutation]] = {}

        def record(key: Tuple[str, str], mut: _Mutation) -> None:
            out.setdefault(key, []).append(mut)

        for modname in sorted(self.graph.modules):
            module = self.graph.modules[modname]
            local_names = {name for (mod, name) in self.bindings
                           if mod == modname}
            imported = self.graph.imported_names.get(modname, {})
            aliases = self.graph.module_aliases.get(modname, {})

            def resolve(name: str) -> Optional[Tuple[str, str]]:
                if name in local_names:
                    return (modname, name)
                if name in imported:
                    src = imported[name]
                    if src in self.bindings:
                        return src
                return None

            for fn_node, in_function in self._scopes(module.tree):
                if not in_function:
                    continue
                for node in ast.walk(fn_node):
                    self._scan_node(node, modname, resolve, aliases,
                                    record)
        return out

    def _scopes(self, tree: ast.AST) -> List[Tuple[ast.AST, bool]]:
        """Top-level statements split into (node, is-function-scope)."""
        out: List[Tuple[ast.AST, bool]] = []
        if not isinstance(tree, ast.Module):
            return out
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((node, True))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out.append((item, True))
            else:
                out.append((node, False))
        return out

    def _scan_node(
            self, node: ast.AST, modname: str,
            resolve: Callable[[str], Optional[Tuple[str, str]]],
            aliases: Dict[str, str],
            record: Callable[[Tuple[str, str], _Mutation], None]) -> None:

        def base_key(expr: ast.AST) -> Optional[Tuple[str, str]]:
            """Binding named at the base of a receiver chain."""
            if isinstance(expr, ast.Name):
                return resolve(expr.id)
            if isinstance(expr, ast.Attribute):
                value = expr.value
                if isinstance(value, ast.Name) and value.id in aliases:
                    target = (aliases[value.id], expr.attr)
                    return target if target in self.bindings else None
                return base_key(value)
            if isinstance(expr, ast.Subscript):
                return base_key(expr.value)
            return None

        if isinstance(node, ast.Global):
            for name in node.names:
                key = resolve(name)
                if key is not None:
                    record(key, _Mutation(modname, node.lineno,
                                          f"global rebind of {name}"))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            key = base_key(node.func.value)
            if key is not None:
                record(key, _Mutation(
                    modname, node.lineno,
                    f"mutator .{node.func.attr}() call"))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    key = base_key(target)
                    if key is not None:
                        what = "subscript store" \
                            if isinstance(target, ast.Subscript) \
                            else f"attribute store .{target.attr}"
                        record(key, _Mutation(modname, node.lineno, what))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    key = base_key(target)
                    if key is not None:
                        record(key, _Mutation(modname, node.lineno,
                                              "del on element/attribute"))

    # ------------------------------------------------------------------

    def _classify(self, info: ModuleStateInfo,
                  evidence: Sequence[_Mutation]) -> None:
        if not info.mutable:
            info.shard_safe = True
            if not info.reasons:
                info.reasons.append("immutable value")
            return
        if info.reasons:  # singleton-factory handle
            info.shard_safe = False
        if evidence:
            info.shard_safe = False
            for mut in evidence:
                info.reasons.append(mut.text())
        if info.shard_safe and not info.reasons:
            info.reasons.append(
                "mutable, but only written at import time")


def collect_shard_unsafe(
        infos: Sequence[ModuleStateInfo],
        module_prefixes: Tuple[str, ...] = ()) -> List[ModuleStateInfo]:
    """The shard-unsafe subset, optionally filtered by module prefix."""
    out = []
    for info in infos:
        if info.shard_safe:
            continue
        if module_prefixes and not info.modname.startswith(
                module_prefixes):
            continue
        out.append(info)
    return out
