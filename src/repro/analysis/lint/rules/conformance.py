"""Protocol conformance: substrate adapters must match dispatch/protocols.py.

The dispatch core is parameterized over ``Clock`` / ``Transport`` /
``ComputeHost`` protocols, and each execution substrate contributes
duck-typed adapter classes.  Python checks none of that until the core
actually calls a method mid-run -- protocol drift surfaces as an
``AttributeError`` twenty minutes into a campaign.  This rule diffs the
adapter classes *structurally* against the protocol definitions at lint
time: every protocol method must exist with the same positional
parameter names (extra adapter parameters must be defaulted), and every
protocol property/attribute must be present as a property, class
attribute, or ``self.<name> = ...`` assignment in ``__init__``.

The adapter registry below is intentionally explicit; a stale entry
(file or class renamed away) is itself a violation, so the registry
cannot rot silently.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

from .base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Project, Violation

#: Where the protocol definitions live, relative to the package root.
PROTOCOLS_REL = "dispatch/protocols.py"

#: The protocol classes the rule extracts from PROTOCOLS_REL.
PROTOCOL_NAMES: tuple[str, ...] = ("Clock", "Transport", "ComputeHost")

#: adapter file -> {adapter class -> protocol it implements}.  One entry
#: per clock domain: the simulated substrate, and the one wall-clock kit
#: every real backend (threaded, process, remote) is assembled from.
DEFAULT_ADAPTERS: Mapping[str, Mapping[str, str]] = {
    "simulation/master.py": {
        "_SimClock": "Clock",
        "_SimTransport": "Transport",
        "_SimHost": "ComputeHost",
    },
    "execution/substrate.py": {
        "ScaledWallClock": "Clock",
        "ScaledLinkTransport": "Transport",
        "ChannelHost": "ComputeHost",
    },
}

#: Second conformance instance: both persistence backends must match
#: the ``JobStore`` protocol in ``store/base.py`` (see default_rules).
STORE_PROTOCOLS_REL = "store/base.py"
STORE_PROTOCOL_NAMES: tuple[str, ...] = ("JobStore",)
STORE_ADAPTERS: Mapping[str, Mapping[str, str]] = {
    "store/memory.py": {"MemoryStore": "JobStore"},
    "store/sqlite.py": {"SqliteStore": "JobStore"},
}

#: Third instance: what a real backend actually supplies -- its worker
#: channel -- must match ``WorkerChannel`` in the substrate kit.
CHANNEL_PROTOCOLS_REL = "execution/substrate.py"
CHANNEL_PROTOCOL_NAMES: tuple[str, ...] = ("WorkerChannel",)
CHANNEL_ADAPTERS: Mapping[str, Mapping[str, str]] = {
    "execution/local.py": {"_ThreadChannel": "WorkerChannel"},
    "execution/process_backend.py": {"_PipeChannel": "WorkerChannel"},
    "net/remote.py": {"_SocketChannel": "WorkerChannel"},
}


@dataclass
class _MethodSpec:
    name: str
    params: list[str]
    n_defaults: int
    line: int


@dataclass
class _ClassShape:
    """Structural summary of one class body."""

    name: str
    line: int
    methods: dict[str, _MethodSpec] = field(default_factory=dict)
    properties: set[str] = field(default_factory=set)
    attributes: set[str] = field(default_factory=set)

    def provides_attribute(self, name: str) -> bool:
        return (
            name in self.properties
            or name in self.attributes
            or name in self.methods  # a method is attribute-shaped too
        )


def _is_property(node: ast.FunctionDef) -> bool:
    for deco in node.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "property":
            return True
        if isinstance(deco, ast.Attribute) and deco.attr in ("setter", "getter"):
            return True
    return False


def _shape_of(node: ast.ClassDef) -> _ClassShape:
    shape = _ClassShape(name=node.name, line=node.lineno)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name.startswith("__") and item.name != "__init__":
                continue
            if isinstance(item, ast.FunctionDef) and _is_property(item):
                shape.properties.add(item.name)
                continue
            args = item.args
            params = [a.arg for a in args.posonlyargs + args.args]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            if item.name == "__init__":
                for stmt in ast.walk(item):
                    if isinstance(stmt, ast.Assign):
                        targets = stmt.targets
                    elif isinstance(stmt, ast.AnnAssign):
                        targets = [stmt.target]
                    else:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            shape.attributes.add(target.attr)
                continue
            shape.methods[item.name] = _MethodSpec(
                name=item.name,
                params=params,
                n_defaults=len(args.defaults),
                line=item.lineno,
            )
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    shape.attributes.add(target.id)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            shape.attributes.add(item.target.id)
    return shape


def _class_shapes(tree: ast.Module) -> dict[str, _ClassShape]:
    return {
        node.name: _shape_of(node)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


class ProtocolConformanceRule(Rule):
    name = "protocol"
    description = (
        "substrate adapter classes must structurally match the Clock/"
        "Transport/ComputeHost protocols in dispatch/protocols.py "
        "(methods, parameter names, properties/attributes)"
    )

    def __init__(
        self,
        adapters: Mapping[str, Mapping[str, str]] | None = None,
        protocols_rel: str = PROTOCOLS_REL,
        protocol_names: tuple[str, ...] = PROTOCOL_NAMES,
        name: str | None = None,
        description: str | None = None,
    ) -> None:
        self.adapters = adapters if adapters is not None else DEFAULT_ADAPTERS
        self.protocols_rel = protocols_rel
        self.protocol_names = protocol_names
        if name is not None:
            # instance override so two conformance checks (dispatch
            # substrates, store backends) can coexist in one rule set
            self.name = name
        if description is not None:
            self.description = description

    def check_project(self, project: "Project") -> Iterator["Violation"]:
        from ..engine import Violation

        proto_ctx = project.get(self.protocols_rel)
        if proto_ctx is None:
            # Partial run without the protocol module: nothing to diff
            # against (the full-tree CI run always loads it).
            return
        protocol_shapes = {
            name: shape
            for name, shape in _class_shapes(proto_ctx.tree).items()
            if name in self.protocol_names
        }
        for name in self.protocol_names:
            if name not in protocol_shapes:
                yield Violation(
                    rule=self.name,
                    path=self.protocols_rel,
                    line=1,
                    col=0,
                    message=f"expected protocol class {name!r} not found",
                )

        for rel, mapping in self.adapters.items():
            ctx = project.get(rel)
            if ctx is None:
                if not project.exists_on_disk(rel):
                    yield Violation(
                        rule=self.name,
                        path=self.protocols_rel,
                        line=1,
                        col=0,
                        message=(
                            f"stale adapter registry entry: {rel!r} does not "
                            "exist (update conformance.DEFAULT_ADAPTERS)"
                        ),
                    )
                continue  # file exists but was not part of this run
            shapes = _class_shapes(ctx.tree)
            for class_name, protocol_name in mapping.items():
                protocol = protocol_shapes.get(protocol_name)
                if protocol is None:
                    continue  # already reported above
                adapter = shapes.get(class_name)
                if adapter is None:
                    yield Violation(
                        rule=self.name,
                        path=rel,
                        line=1,
                        col=0,
                        message=(
                            f"stale adapter registry entry: class "
                            f"{class_name!r} not found (update "
                            "conformance.DEFAULT_ADAPTERS)"
                        ),
                    )
                    continue
                yield from self._diff(ctx.rel, adapter, protocol, protocol_name)

    def _diff(
        self,
        rel: str,
        adapter: _ClassShape,
        protocol: _ClassShape,
        protocol_name: str,
    ) -> Iterator["Violation"]:
        from ..engine import Violation

        for spec in protocol.methods.values():
            impl = adapter.methods.get(spec.name)
            if impl is None:
                detail = (
                    "implemented as a property, not a method"
                    if spec.name in adapter.properties
                    else "missing"
                )
                yield Violation(
                    rule=self.name,
                    path=rel,
                    line=adapter.line,
                    col=0,
                    message=(
                        f"{adapter.name} does not conform to {protocol_name}: "
                        f"method {spec.name}() {detail}"
                    ),
                )
                continue
            want = spec.params
            have = impl.params
            extra = have[len(want):]
            undefaulted_extra = len(extra) - min(impl.n_defaults, len(extra))
            if have[: len(want)] != want or undefaulted_extra > 0:
                yield Violation(
                    rule=self.name,
                    path=rel,
                    line=impl.line,
                    col=0,
                    message=(
                        f"{adapter.name}.{spec.name}({', '.join(have)}) drifts "
                        f"from {protocol_name}.{spec.name}({', '.join(want)}); "
                        "extra parameters must be defaulted and shared ones "
                        "must keep the protocol's names"
                    ),
                )
        for prop in sorted(protocol.properties | protocol.attributes):
            if not adapter.provides_attribute(prop):
                yield Violation(
                    rule=self.name,
                    path=rel,
                    line=adapter.line,
                    col=0,
                    message=(
                        f"{adapter.name} does not conform to {protocol_name}: "
                        f"attribute/property {prop!r} is never defined"
                    ),
                )
