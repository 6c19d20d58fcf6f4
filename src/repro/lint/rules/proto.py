"""PROTO — cross-table protocol-completeness rules.

The paper's diagnosis coverage rests on three registries staying in
lockstep: the standardized cause tables (``nas/causes.py``) must all be
carried by the on-card applet registry (``core/applet.py`` §4.3.1),
every NAS message class must be round-trip-registered in the codec
(``nas/codec.py``), and every Table 3 reset primitive must be handled
by the decision logic (``core/decision.py``). The fleet's result cache
adds one more: its keys may be built only from fingerprint-stable task
fields (``fleet/resultcache.py``). These are whole-tree invariants no
single-file check can see, so they run as project rules: each locates
its subject modules by path suffix and silently skips when the linted
tree does not contain them (linting a subtree stays meaningful).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Module, Project
from repro.lint.finding import Finding
from repro.lint.registry import rule

CAUSES_PATH = "nas/causes.py"
APPLET_PATH = "core/applet.py"
MESSAGES_PATH = "nas/messages.py"
CODEC_PATH = "nas/codec.py"
RESET_PATH = "core/reset.py"
DECISION_PATH = "core/decision.py"
RESULTCACHE_PATH = "fleet/resultcache.py"

#: Constructor helpers of the cause tables, by plane.
_PLANE_CTORS = {"_mm": "mm", "_sm": "sm"}
#: Full-registry names the applet may carry wholesale, by plane.
_PLANE_REGISTRIES = {"mm": "MM_CAUSES", "sm": "SM_CAUSES"}


def _registered_causes(causes: Module) -> dict[str, list[tuple[int, int]]]:
    """Plane -> [(code, lineno)] from ``_mm(...)`` / ``_sm(...)`` calls."""
    table: dict[str, list[tuple[int, int]]] = {"mm": [], "sm": []}
    for node in ast.walk(causes.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        plane = _PLANE_CTORS.get(node.func.id)
        if plane is None or not node.args:
            continue
        code = node.args[0]
        if isinstance(code, ast.Constant) and isinstance(code.value, int):
            table[plane].append((code.value, node.lineno))
    return table


def _find_on_install(applet: Module) -> ast.FunctionDef | None:
    for node in ast.walk(applet.tree):
        if isinstance(node, ast.FunctionDef) and node.name == "on_install":
            return node
    return None


def _plane_value_nodes(on_install: ast.FunctionDef) -> dict[str, ast.expr]:
    """Values under the ``"mm"`` / ``"sm"`` keys of the registry dict."""
    values: dict[str, ast.expr] = {}
    for node in ast.walk(on_install):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and key.value in ("mm", "sm"):
                values[key.value] = value
    return values


def _int_dict_keys(node: ast.expr) -> set[int] | None:
    """Key set of an int-keyed dict literal; None if not one."""
    if not isinstance(node, ast.Dict):
        return None
    keys: set[int] = set()
    for key in node.keys:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, int)):
            return None
        keys.add(key.value)
    return keys


@rule(
    "PROTO001",
    "every 5GMM/5GSM cause registered in nas/causes.py must be carried "
    "by the applet's on-card registry (core/applet.py on_install)",
    project=True,
)
def proto001_applet_registry(project: Project) -> Iterator[Finding]:
    causes = project.find(CAUSES_PATH)
    applet = project.find(APPLET_PATH)
    if causes is None or applet is None or causes.tree is None or applet.tree is None:
        return
    registered = _registered_causes(causes)
    on_install = _find_on_install(applet)
    if on_install is None:
        yield Finding(
            applet.path, 1, 0, "PROTO001",
            "applet has no on_install; the cause registry is never "
            "persisted to the card",
        )
        return
    plane_values = _plane_value_nodes(on_install)
    referenced = {
        node.id
        for node in ast.walk(on_install)
        if isinstance(node, ast.Name)
    }
    for plane, registry_name in _PLANE_REGISTRIES.items():
        if registry_name in referenced:
            continue  # carries the full table — complete by construction
        value = plane_values.get(plane)
        if value is None:
            yield Finding(
                applet.path, on_install.lineno, on_install.col_offset, "PROTO001",
                f"on_install registry has no '{plane}' plane and does not "
                f"reference {registry_name}",
            )
            continue
        literal_keys = _int_dict_keys(value)
        if literal_keys is None:
            yield Finding(
                applet.path, value.lineno, value.col_offset, "PROTO001",
                f"cannot statically verify the '{plane}' registry: use "
                f"{registry_name} or an int-keyed dict literal",
            )
            continue
        missing = sorted(
            code for code, _ in registered[plane] if code not in literal_keys
        )
        if missing:
            yield Finding(
                applet.path, value.lineno, value.col_offset, "PROTO001",
                f"'{plane}' registry is missing cause codes {missing} "
                f"registered in {CAUSES_PATH}",
            )


@rule(
    "PROTO002",
    "every NAS message class must be round-trip-registered in the codec "
    "(an _ENCODERS entry or _encode_body branch, and a _DECODERS entry)",
    project=True,
)
def proto002_codec_roundtrip(project: Project) -> Iterator[Finding]:
    messages = project.find(MESSAGES_PATH)
    codec = project.find(CODEC_PATH)
    if messages is None or codec is None or messages.tree is None or codec.tree is None:
        return

    # Message classes: map class name -> MessageType member it declares.
    class_types: dict[str, tuple[str, int]] = {}
    for node in ast.walk(messages.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for child in ast.walk(node):
            if not isinstance(child, ast.Assign):
                continue
            for target in child.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "MESSAGE_TYPE"
                    and isinstance(child.value, ast.Attribute)
                    and isinstance(child.value.value, ast.Name)
                    and child.value.value.id == "MessageType"
                ):
                    class_types[node.name] = (child.value.attr, node.lineno)

    # Encoder registrations: class-name keys of the _ENCODERS dict literal
    # (precompiled registration table), plus legacy isinstance(msg, Cls)
    # dispatch branches anywhere in the codec.
    encoded: set[str] = set()
    for node in ast.walk(codec.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            target = node.args[1]
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for name in names:
                if isinstance(name, ast.Name):
                    encoded.add(name.id)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not any(
                isinstance(target, ast.Name) and target.id == "_ENCODERS"
                for target in targets
            ):
                continue
            if isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Name):
                        encoded.add(key.id)

    # Decoder table: MessageType.X keys of the _DECODERS dict.
    decoded: set[str] = set()
    for node in ast.walk(codec.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "_DECODERS"
            for target in node.targets
        ):
            continue
        if isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if (
                    isinstance(key, ast.Attribute)
                    and isinstance(key.value, ast.Name)
                    and key.value.id == "MessageType"
                ):
                    decoded.add(key.attr)

    for class_name, (member, lineno) in sorted(class_types.items()):
        if class_name not in encoded:
            yield Finding(
                messages.path, lineno, 0, "PROTO002",
                f"{class_name} has no _ENCODERS entry (or _encode_body "
                f"branch) in {CODEC_PATH}; the message cannot be serialized",
            )
        if member not in decoded:
            yield Finding(
                messages.path, lineno, 0, "PROTO002",
                f"MessageType.{member} ({class_name}) has no _DECODERS "
                f"entry in {CODEC_PATH}; the message cannot be parsed back",
            )


@rule(
    "PROTO003",
    "every Table 3 reset primitive (ResetAction member) must be handled "
    "in core/decision.py",
    project=True,
)
def proto003_reset_primitives(project: Project) -> Iterator[Finding]:
    reset = project.find(RESET_PATH)
    decision = project.find(DECISION_PATH)
    if reset is None or decision is None or reset.tree is None or decision.tree is None:
        return

    members: list[tuple[str, int]] = []
    for node in ast.walk(reset.tree):
        if isinstance(node, ast.ClassDef) and node.name == "ResetAction":
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and target.id.isupper():
                            members.append((target.id, statement.lineno))
    if not members:
        return

    handled = {
        node.attr
        for node in ast.walk(decision.tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ResetAction"
    }
    for member, lineno in members:
        if member not in handled:
            yield Finding(
                reset.path, lineno, 0, "PROTO003",
                f"ResetAction.{member} is never referenced in "
                f"{DECISION_PATH}; the Table 3 primitive is unreachable",
            )


@rule(
    "PROTO004",
    "no duplicate cause codes within a plane in nas/causes.py "
    "(dict build silently keeps only the last)",
    project=True,
)
def proto004_duplicate_causes(project: Project) -> Iterator[Finding]:
    causes = project.find(CAUSES_PATH)
    if causes is None or causes.tree is None:
        return
    for plane, entries in sorted(_registered_causes(causes).items()):
        seen: dict[int, int] = {}
        for code, lineno in entries:
            if code in seen:
                yield Finding(
                    causes.path, lineno, 0, "PROTO004",
                    f"duplicate {plane} cause code {code} (first registered "
                    f"at line {seen[code]}) — the registry keeps only one",
                )
            else:
                seen[code] = lineno


#: TaskSpec fields a result-cache key may legally depend on — the
#: fingerprint-stable simulation coordinates. Everything else on a
#: TaskSpec (``task_id``, ``replica``) is a plan coordinate, and
#: execution context (executor mode, worker count, shard/cohort
#: packing) never reaches the record bytes at all.
_STABLE_TASK_FIELDS = {"android_timers", "handling", "horizon", "scenario",
                       "seed"}
#: Identifier tokens that smell like execution context leaking into
#: the key builder's signature.
_CONTEXT_TOKENS = {"chunk", "chunks", "cohort", "executor", "mode",
                   "pool", "replica", "shard", "worker", "workers"}


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


@rule(
    "PROTO006",
    "result-cache keys must be built only from fingerprint-stable "
    "TaskSpec fields (scenario/handling/seed/horizon/android_timers) — "
    "a task-id, replica, executor-mode, or worker-count leak into the "
    "key silently splits identical results and kills the hit rate",
    project=True,
)
def proto006_cache_key_purity(project: Project) -> Iterator[Finding]:
    resultcache = project.find(RESULTCACHE_PATH)
    if resultcache is None or resultcache.tree is None:
        return
    builder = _find_function(resultcache.tree, "task_key")
    if builder is None:
        yield Finding(
            resultcache.path, 1, 0, "PROTO006",
            f"{RESULTCACHE_PATH} has no task_key() builder; cache-key "
            f"derivation cannot be statically verified",
        )
        return
    args = builder.args
    positional = args.posonlyargs + args.args
    if not positional:
        return
    task_param = positional[0].arg
    for arg in list(positional[1:]) + args.kwonlyargs:
        tokens = set(arg.arg.lower().split("_"))
        leaked = sorted(tokens & _CONTEXT_TOKENS)
        if leaked:
            yield Finding(
                resultcache.path, builder.lineno, builder.col_offset,
                "PROTO006",
                f"task_key() parameter {arg.arg!r} carries execution "
                f"context ({', '.join(leaked)}) into the cache key; keys "
                f"may depend only on the code fingerprint and the task's "
                f"simulation coordinates",
            )
    for node in ast.walk(builder):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == task_param
            and node.attr not in _STABLE_TASK_FIELDS
        ):
            yield Finding(
                resultcache.path, node.lineno, node.col_offset, "PROTO006",
                f"cache key reads TaskSpec.{node.attr}, which is not a "
                f"fingerprint-stable simulation coordinate (allowed: "
                f"{', '.join(sorted(_STABLE_TASK_FIELDS))})",
            )
