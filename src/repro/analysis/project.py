"""Per-class attribute models for the reset-completeness (``RC``) rules.

:class:`ClassModelIndex` records, for every top-level class, the
attributes ``__init__`` assigns, those ``reset()`` reassigns or restores
in place, and the helpers either method delegates to, with base-class
and ``super().__init__`` resolution across files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.framework import Project, SourceFile


def _last_name(node: ast.expr) -> str | None:
    """The trailing identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


#: ``self.<attr>.<call>()`` spellings that count as *restoring* the
#: attribute's state rather than rebinding the name (``reset()`` contract).
RESTORING_CALLS = frozenset({"clear", "reset"})


@dataclass(frozen=True)
class AttrWrite:
    """One store to ``self.<attr>`` inside a method body."""

    rel: str
    line: int
    col: int
    attr: str
    #: Method the store sits in (``__init__``, ``reset``, ...).
    method: str
    #: "assign" (plain / annotated), "augassign", "setattr"
    #: (``object.__setattr__(self, "attr", ...)``) or "subscript"
    #: (``self.attr[...] = ...`` — mutates, does not bind).
    kind: str

    @property
    def binds(self) -> bool:
        """Whether this write (re)binds the attribute name."""
        return self.kind in ("assign", "setattr")


@dataclass
class ClassModel:
    """Attribute dataflow of one class definition."""

    rel: str
    name: str
    line: int
    #: Base-class names (trailing identifiers), in declaration order.
    bases: tuple[str, ...]
    #: method name -> definition line.
    methods: dict[str, int] = field(default_factory=dict)
    #: method name -> every ``self.<attr>`` store, in source order.
    writes: dict[str, list[AttrWrite]] = field(default_factory=dict)
    #: method name -> attrs restored via ``self.<attr>.clear()/.reset()``.
    restores: dict[str, set[str]] = field(default_factory=dict)
    #: method name -> ``self.<method>()`` delegation targets.
    delegates: dict[str, set[str]] = field(default_factory=dict)
    #: methods containing a ``super().__init__(...)`` call.
    super_init_calls: set[str] = field(default_factory=set)

    def bound_attrs(self, method: str) -> set[str]:
        """Attrs (re)bound by plain/annotated/``__setattr__`` stores."""
        return {w.attr for w in self.writes.get(method, ()) if w.binds}

    def first_write(self, method: str, attr: str) -> AttrWrite | None:
        for write in self.writes.get(method, ()):
            if write.attr == attr:
                return write
        return None


class _ClassModelBuilder(ast.NodeVisitor):
    """Extracts :class:`ClassModel`\\ s from one parsed file.

    Only top-level classes are modelled (the package defines no nested
    ones); functions nested inside a method are attributed to the method.
    """

    def __init__(self, src: SourceFile):
        self.src = src
        self.models: list[ClassModel] = []

    def build(self) -> list[ClassModel]:
        for node in self.src.tree.body:  # type: ignore[attr-defined]
            if isinstance(node, ast.ClassDef):
                self.models.append(self._model_class(node))
        return self.models

    def _model_class(self, node: ast.ClassDef) -> ClassModel:
        bases = tuple(
            name for name in (_last_name(base) for base in node.bases)
            if name is not None
        )
        model = ClassModel(rel=self.src.rel, name=node.name,
                          line=node.lineno, bases=bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                model.methods[item.name] = item.lineno
                self._scan_method(model, item)
        return model

    def _scan_method(self, model: ClassModel,
                     fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        writes = model.writes.setdefault(fn.name, [])
        restores = model.restores.setdefault(fn.name, set())
        delegates = model.delegates.setdefault(fn.name, set())
        aliases = self._local_aliases(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._scan_target(model, fn.name, writes, target,
                                      "assign", aliases)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._scan_target(model, fn.name, writes, node.target,
                                  "assign", aliases)
            elif isinstance(node, ast.AugAssign):
                self._scan_target(model, fn.name, writes, node.target,
                                  "augassign", aliases)
            elif isinstance(node, ast.Call):
                self._scan_call(model, fn.name, writes, restores,
                                delegates, node)

    def _local_aliases(self, fn: ast.AST) -> dict[str, str]:
        """Local names aliasing ``self.<attr>`` (or elements of it).

        ``beats = self._beats`` followed by ``row = beats[i]`` makes
        both ``beats`` and ``row`` aliases of ``_beats``, so in-place
        restoration loops over a nested table are attributed to the
        attribute they mutate.  Resolution is iterated to a fixed
        point; shadowing a name with an unrelated value afterwards is
        not modelled (the package's reset bodies never do).
        """
        aliases: dict[str, str] = {}
        for _ in range(4):  # alias chains in practice are depth <= 2
            changed = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                attr = _root_self_attr(node.value, aliases)
                if attr is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            aliases.get(target.id) != attr:
                        aliases[target.id] = attr
                        changed = True
            if not changed:
                break
        return aliases

    def _scan_target(self, model: ClassModel, method: str,
                     writes: list[AttrWrite], target: ast.expr,
                     kind: str, aliases: dict[str, str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(model, method, writes, element, kind,
                                  aliases)
            return
        if isinstance(target, ast.Starred):
            self._scan_target(model, method, writes, target.value, kind,
                              aliases)
            return
        if isinstance(target, ast.Attribute) and _is_self(target.value):
            writes.append(AttrWrite(
                rel=model.rel, line=target.lineno, col=target.col_offset,
                attr=target.attr, method=method, kind=kind,
            ))
        elif isinstance(target, ast.Subscript):
            attr = _root_self_attr(target.value, aliases)
            if attr is not None:
                writes.append(AttrWrite(
                    rel=model.rel, line=target.lineno,
                    col=target.col_offset, attr=attr, method=method,
                    kind="subscript",
                ))

    def _scan_call(self, model: ClassModel, method: str,
                   writes: list[AttrWrite], restores: set[str],
                   delegates: set[str], node: ast.Call) -> None:
        func = node.func
        # object.__setattr__(self, "attr", value) — the frozen-dataclass
        # hash-cache idiom.
        if (isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and len(node.args) >= 2
                and _is_self(node.args[0])
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            writes.append(AttrWrite(
                rel=model.rel, line=node.lineno, col=node.col_offset,
                attr=node.args[1].value, method=method, kind="setattr",
            ))
            return
        if not isinstance(func, ast.Attribute):
            return
        # self.attr.clear() / self.attr.reset(...): restores attr state.
        if (func.attr in RESTORING_CALLS
                and isinstance(func.value, ast.Attribute)
                and _is_self(func.value.value)):
            restores.add(func.value.attr)
        # self.method(...): delegation (resolved lazily by the index).
        elif _is_self(func.value):
            delegates.add(func.attr)
        # super().__init__(...): inherited initialisation.
        elif (func.attr == "__init__"
              and isinstance(func.value, ast.Call)
              and isinstance(func.value.func, ast.Name)
              and func.value.func.id == "super"):
            model.super_init_calls.add(method)


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _root_self_attr(node: ast.expr,
                    aliases: dict[str, str]) -> str | None:
    """The ``self`` attribute an expression drills into, if any.

    ``self._beats`` -> ``_beats``; ``beats[i]`` -> whatever ``beats``
    aliases; ``self._beats[i]`` -> ``_beats``.  Deeper attribute chains
    (``self.stats.in_flight``) resolve to ``None``: state owned by a
    sub-object is that object's own reset obligation.
    """
    if isinstance(node, ast.Attribute) and _is_self(node.value):
        return node.attr
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Subscript):
        return _root_self_attr(node.value, aliases)
    return None


@dataclass
class ClassModelIndex:
    """Every modelled class of one check run, with resolution helpers."""

    #: (rel, class name) -> model.
    by_key: dict[tuple[str, str], ClassModel] = field(default_factory=dict)
    #: class name -> models (for base resolution across files).
    by_name: dict[str, list[ClassModel]] = field(default_factory=dict)

    def get(self, rel: str, name: str) -> ClassModel | None:
        return self.by_key.get((rel, name))

    def find(self, name: str, *, near: str | None = None
             ) -> ClassModel | None:
        """Resolve a class by bare name; same-file candidates win.

        Returns ``None`` when the name is unknown or ambiguous across
        files (guessing a base wrong would poison the whole chain).
        """
        candidates = self.by_name.get(name, [])
        if near is not None:
            same_file = [m for m in candidates if m.rel == near]
            if same_file:
                candidates = same_file
        if len(candidates) != 1:
            return None
        return candidates[0]

    def _mro(self, model: ClassModel) -> list[ClassModel]:
        """The resolvable base chain, nearest first (cycle-safe)."""
        chain: list[ClassModel] = []
        seen = {(model.rel, model.name)}
        frontier = [model]
        while frontier:
            current = frontier.pop(0)
            for base_name in current.bases:
                base = self.find(base_name, near=current.rel)
                if base is not None and (base.rel, base.name) not in seen:
                    seen.add((base.rel, base.name))
                    chain.append(base)
                    frontier.append(base)
        return chain

    def _expand(self, model: ClassModel, method: str,
                seen: set[tuple[str, str, str]]
                ) -> tuple[set[str], set[str]]:
        """(bound, restored) attrs of ``method``, delegation-expanded.

        Follows ``self.<m>()`` calls into methods of the same class (or
        its resolvable bases) and ``super().__init__`` into the base
        ``__init__`` — so ``reset()`` delegating to a shared
        ``_init_run_state`` helper gets credit for everything the helper
        assigns.
        """
        key = (model.rel, model.name, method)
        if key in seen:
            return set(), set()
        seen.add(key)
        owner = self._method_owner(model, method)
        if owner is None:
            return set(), set()
        bound = set(owner.bound_attrs(method))
        restored = set(owner.restores.get(method, ()))
        # In-place element stores (self.attr[i] = ..., possibly through a
        # local alias) restore state without rebinding the name.
        restored |= {w.attr for w in owner.writes.get(method, ())
                     if w.kind == "subscript"}
        for target in owner.delegates.get(method, ()):
            sub_bound, sub_restored = self._expand(model, target, seen)
            bound |= sub_bound
            restored |= sub_restored
        if method in owner.super_init_calls:
            for base in self._mro(owner):
                if "__init__" in base.methods:
                    sub_bound, sub_restored = self._expand(
                        base, "__init__", seen)
                    bound |= sub_bound
                    restored |= sub_restored
                    break
        return bound, restored

    def _method_owner(self, model: ClassModel, method: str
                      ) -> ClassModel | None:
        """The model (self or nearest base) that defines ``method``."""
        if method in model.methods:
            return model
        for base in self._mro(model):
            if method in base.methods:
                return base
        return None

    def has_method(self, model: ClassModel, method: str) -> bool:
        return self._method_owner(model, method) is not None

    def init_attrs(self, model: ClassModel) -> set[str]:
        """Attrs bound by ``__init__``, inherited and delegation-expanded.

        A class without its own ``__init__`` inherits the nearest base's
        (implicit ``super().__init__``); one *with* an ``__init__``
        inherits base attrs only through an explicit ``super().__init__``
        call, which :meth:`_expand` follows.
        """
        owner = self._method_owner(model, "__init__")
        if owner is None:
            return set()
        bound, _ = self._expand(owner, "__init__", set())
        return bound

    def init_write_line(self, model: ClassModel, attr: str) -> int:
        """Line of the first ``__init__`` store of ``attr`` (best effort)."""
        owner = self._method_owner(model, "__init__")
        if owner is not None:
            write = owner.first_write("__init__", attr)
            if write is not None:
                return write.line
        return model.line

    def reset_coverage(self, model: ClassModel) -> tuple[set[str], set[str]]:
        """(rebound, restored) attrs of ``reset()``, delegation-expanded."""
        owner = self._method_owner(model, "reset")
        if owner is None:
            return set(), set()
        return self._expand(owner, "reset", set())


def build_class_models(project: Project) -> ClassModelIndex:
    """Model every top-level class in the project's files."""
    index = ClassModelIndex()
    for src in project:
        for model in _ClassModelBuilder(src).build():
            index.by_key[(model.rel, model.name)] = model
            index.by_name.setdefault(model.name, []).append(model)
    return index


def class_models(project: Project) -> ClassModelIndex:
    """The project's class-model index, built once per check run."""
    cached: ClassModelIndex | None = getattr(project, "_class_models", None)
    if cached is None:
        cached = build_class_models(project)
        project._class_models = cached  # type: ignore[attr-defined]
    return cached
