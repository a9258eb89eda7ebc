"""Knowledge graph model and loader.

A knowledge graph is a directed graph of typed entities connected by typed
attribute edges. Entities, entity types and attribute types all carry a text
description. Attribute values that are plain text (rather than a reference to
another entity) become *literal* entities of the reserved type ``TEXT`` (type
id 0, empty type text): they keep the raw text, can match keywords through it,
but never anchor an answer.

Graph file format (UTF-8, one record per line, ``#`` comments and blank lines
ignored)::

    E <entity-key> <type-name> <text...>
    A <source-key> <attr-name> @<target-key>
    A <source-key> <attr-name> "literal text"

Entities must be declared before they are referenced. Type and attribute
names are single whitespace-free tokens and double as their own text
description. A JSON variant is also accepted: one object per line, optionally
preceded by ``{"kind": "header", "version": 1}``, with records shaped as
``{"kind": "entity", "key": ..., "type": ..., "text": ...}`` and
``{"kind": "edge", "source": ..., "attr": ..., "target": {"ref": key}}`` or
``target: {"text": literal}``.

Identifier assignment is dense and deterministic: ids are handed out in order
of first appearance, so loading the same byte stream twice yields identical
graphs.
"""
from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from .errors import GraphLinkError, GraphParseError

TEXT_TYPE_ID = 0
TEXT_TYPE_NAME = "TEXT"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split on every non-alphanumeric character;
    empty tokens are dropped."""
    return _TOKEN_RE.findall(text.lower())


def jaccard_similarity(word: str, tokens) -> float:
    """Jaccard similarity between the singleton {word} and a token collection.

    Equals 1/|set(tokens)| when the word occurs in the tokens, else 0; defined
    as 0 for empty token collections.
    """
    token_set = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
    if not token_set:
        return 0.0
    if word in token_set:
        return 1.0 / len(token_set)
    return 0.0


@dataclass
class KnowledgeGraph:
    """Immutable-after-load knowledge graph with dense integer ids.

    Entities, types and attributes each live in their own id namespace,
    contiguous from 0. Type id 0 is always the reserved TEXT type. Adjacency
    lists hold each edge once, sorted by (attribute id, target id); multiple
    edges with the same (source, attribute) and different targets are allowed.
    """

    entity_type: list[int] = field(default_factory=list)
    entity_text: list[str] = field(default_factory=list)
    entity_token_set: list[frozenset[str]] = field(default_factory=list)
    entity_keys: list[Optional[str]] = field(default_factory=list)
    type_names: list[str] = field(default_factory=list)
    type_token_set: list[frozenset[str]] = field(default_factory=list)
    attr_names: list[str] = field(default_factory=list)
    attr_token_set: list[frozenset[str]] = field(default_factory=list)
    adjacency: list[list[tuple[int, int]]] = field(default_factory=list)
    key_to_id: dict[str, int] = field(default_factory=dict)

    @property
    def n_entities(self) -> int:
        return len(self.entity_type)

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    @property
    def n_attrs(self) -> int:
        return len(self.attr_names)

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """Every (source, attr, target) edge, in adjacency order: a new list read from `adjacency`."""
        return [(s, a, t) for s, out in enumerate(self.adjacency) for a, t in out]

    def fingerprint(self) -> bytes:
        """SHA-256 of the entity types, the entity texts and the edges (in
        adjacency order): with the name tables, all an index depends on."""
        texts = [t.encode("utf-8") for t in self.entity_text]
        edges = self.edges
        digest = hashlib.sha256(struct.pack("<QQ", len(texts), len(edges)))
        digest.update(struct.pack(f"<{len(texts)}I", *self.entity_type))
        digest.update(struct.pack(f"<{len(texts)}Q", *map(len, texts)))
        digest.update(struct.pack(f"<{3 * len(edges)}I", *chain.from_iterable(edges)))
        digest.update(b"".join(texts))
        return digest.digest()

    def is_literal(self, entity: int) -> bool:
        """True for dummy entities created from plain-text attribute values."""
        return self.entity_type[entity] == TEXT_TYPE_ID


class _Builder:
    def __init__(self):
        self.g = KnowledgeGraph()
        self._type_ids: dict[str, int] = {}
        self._attr_ids: dict[str, int] = {}
        self._intern_type(TEXT_TYPE_NAME, text="")

    def _intern_type(self, name, text=None):
        tid = self._type_ids.get(name)
        if tid is None:
            tid = len(self.g.type_names)
            self._type_ids[name] = tid
            self.g.type_names.append(name)
            self.g.type_token_set.append(frozenset(tokenize(name if text is None else text)))
        return tid

    def _intern_attr(self, name):
        aid = self._attr_ids.get(name)
        if aid is None:
            aid = len(self.g.attr_names)
            self._attr_ids[name] = aid
            self.g.attr_names.append(name)
            self.g.attr_token_set.append(frozenset(tokenize(name)))
        return aid

    def _new_entity(self, type_id, text, key=None):
        g = self.g
        eid = g.n_entities
        g.entity_type.append(type_id)
        g.entity_text.append(text)
        g.entity_token_set.append(frozenset(tokenize(text)))
        g.entity_keys.append(key)
        g.adjacency.append([])
        return eid

    def add_entity(self, key, type_name, text, line=None):
        if key in self.g.key_to_id:
            raise GraphParseError(f"duplicate entity key {key!r}", line)
        eid = self._new_entity(self._intern_type(type_name), text, key=key)
        self.g.key_to_id[key] = eid
        return eid

    def add_edge(self, source_key, attr_name, target, line=None):
        source = self.g.key_to_id.get(source_key)
        if source is None:
            raise GraphLinkError(f"undeclared source entity {source_key!r}", line)
        aid = self._intern_attr(attr_name)
        if isinstance(target, str):  # reference to a declared entity
            tid = self.g.key_to_id.get(target)
            if tid is None:
                raise GraphLinkError(f"undeclared target entity {target!r}", line)
        else:  # ("literal", text): materialize a dummy TEXT entity
            tid = self._new_entity(TEXT_TYPE_ID, target[1])
        self.g.adjacency[source].append((aid, tid))

    def finish(self):
        # Edges are a set of (source, attr, target) facts: drop re-declarations.
        for i, lst in enumerate(self.g.adjacency):
            self.g.adjacency[i] = sorted(set(lst))
        return self.g


def _parse_text_line(builder, line, lineno):
    kind, _, rest = line.partition(" ")
    if kind == "E":
        parts = rest.split(None, 2)
        if len(parts) < 2:
            raise GraphParseError("entity record needs <key> <type-name> [text]", lineno)
        key, type_name = parts[0], parts[1]
        text = parts[2] if len(parts) == 3 else ""
        builder.add_entity(key, type_name, text, line=lineno)
    elif kind == "A":
        parts = rest.split(None, 2)
        if len(parts) != 3:
            raise GraphParseError("edge record needs <source-key> <attr-name> <target>", lineno)
        source, attr, target = parts
        if target.startswith("@"):
            if len(target) < 2:
                raise GraphParseError("empty target reference", lineno)
            builder.add_edge(source, attr, target[1:], line=lineno)
        elif len(target) >= 2 and target.startswith('"') and target.endswith('"'):
            builder.add_edge(source, attr, ("literal", target[1:-1]), line=lineno)
        else:
            raise GraphParseError(
                "edge target must be @<key> or a double-quoted literal", lineno
            )
    else:
        raise GraphParseError(f"unknown record kind {kind!r}", lineno)


def _parse_json_line(builder, line, lineno):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", lineno) from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GraphParseError("JSON record must be an object with a 'kind' field", lineno)
    def field(name, default=None):
        value = obj.get(name, default)
        if not isinstance(value, str):
            raise GraphParseError(f"field {name!r} must be a string", lineno)
        return value

    kind = obj["kind"]
    if kind == "header":
        if obj.get("version") != 1:
            raise GraphParseError(f"unsupported graph format version {obj.get('version')!r}", lineno)
    elif kind == "entity":
        builder.add_entity(field("key"), field("type"), field("text", ""), line=lineno)
    elif kind == "edge":
        target = obj.get("target")
        if isinstance(target, dict) and isinstance(target.get("ref"), str):
            tgt = target["ref"]
        elif isinstance(target, dict) and isinstance(target.get("text"), str):
            tgt = ("literal", target["text"])
        else:
            raise GraphParseError("edge target must be {'ref': key} or {'text': literal}", lineno)
        builder.add_edge(field("source"), field("attr"), tgt, line=lineno)
    else:
        raise GraphParseError(f"unknown record kind {kind!r}", lineno)


def _iter_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                yield from fh
        except UnicodeDecodeError:
            raise _not_utf8(source) from None
    else:
        yield from source


def _not_utf8(path) -> GraphParseError:
    """The error naming `path` and its first line that is not UTF-8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return GraphParseError(f"{path} is not UTF-8 ({exc.reason} at byte {exc.start + 1})", lineno)
    return GraphParseError(f"{path} is not UTF-8")


def load_graph(source: Union[str, Path, IO[str]]) -> KnowledgeGraph:
    """Load a knowledge graph from a path or an open text stream of lines.

    Text and JSON-lines formats are auto-detected from the first record. Raises
    GraphParseError for malformed records (with the line number) and
    GraphLinkError for references to undeclared entities.
    """
    builder = _Builder()
    json_mode = None
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if json_mode is None:
            json_mode = line.startswith("{")
        if json_mode:
            _parse_json_line(builder, line, lineno)
        else:
            _parse_text_line(builder, line, lineno)
    return builder.finish()
