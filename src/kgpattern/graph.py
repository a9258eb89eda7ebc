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
graphs. The loader stores only what it reads; the token sets and the sorted
edge forms are made on their first read, so a query pays only for what it reads.
"""
from __future__ import annotations

import functools
import hashlib
import json
import re
import struct
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import numpy as np

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
    contiguous from 0. Type id 0 is always the reserved TEXT type. Edge lines
    are stored as read; the edge forms, the token sets and the memo that
    `tables.render_table` fills (`table_layout`) are made on first read and kept.
    The edge forms hold each edge once, sorted by (source, attribute id, target
    id); edges with the same (source, attribute) may have several targets.
    """

    entity_type: list[int] = field(default_factory=list)
    entity_text: list[str] = field(default_factory=list)
    entity_keys: list[Optional[str]] = field(default_factory=list)
    type_names: list[str] = field(default_factory=list)
    attr_names: list[str] = field(default_factory=list)
    key_to_id: dict[str, int] = field(default_factory=dict)
    edge_ids: list[int] = field(default_factory=list)  # source, attr, target of each edge line, in file order

    @property
    def n_entities(self) -> int:
        return len(self.entity_type)

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    @property
    def n_attrs(self) -> int:
        return len(self.attr_names)

    @functools.cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as an int64 CSR, made on first read and kept: per entity
        the position of its first edge (and one past the last), and each
        edge's (attr, target) row, in (attr, target) order within a source.
        A repeated edge line is held once."""
        edges = np.array(self.edge_ids, np.int64).reshape(-1, 3)
        edges = edges[np.lexsort(edges.T[::-1])]  # by source, then attr, then target
        keep = np.diff(edges, axis=0, prepend=-1).any(1)  # the first of equal rows (no id is -1)
        return np.searchsorted(edges[keep, 0], np.arange(self.n_entities + 1)), edges[keep, 1:]

    @functools.cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Each entity's (attr, target) edges, in `edge_arrays` order."""
        pairs = list(map(tuple, self.edge_arrays[1].tolist()))
        return [pairs[a:b] for a, b in pairwise(self.edge_arrays[0].tolist())]

    @functools.cached_property
    def edges(self) -> list[tuple[int, int, int]]:
        """Every (source, attr, target) edge, in `edge_arrays` order."""
        return [(s, a, t) for s, out in enumerate(self.adjacency) for a, t in out]

    @functools.cached_property
    def _token_sets(self) -> tuple[list[frozenset[str]], ...]:
        """The entity, type and attribute token sets, each distinct text tokenized once."""
        names = self.entity_text, ["", *self.type_names[1:]], self.attr_names  # the TEXT type has no text
        token_sets = {text: frozenset(tokenize(text)) for text in set().union(*names)}
        return tuple([token_sets[text] for text in texts] for texts in names)

    @functools.cached_property
    def table_layout(self) -> dict:
        """`tables.render_table`'s memo: each path pattern's columns, added on first use."""
        return {}

    entity_token_set = property(lambda self: self._token_sets[0], doc="Each entity's text's tokens.")
    type_token_set = property(lambda self: self._token_sets[1], doc="Each type name's tokens; none for TEXT.")
    attr_token_set = property(lambda self: self._token_sets[2], doc="Each attribute name's tokens.")

    def fingerprint(self) -> bytes:
        """SHA-256 of the entity types, the entity texts and the edges (in
        `edge_arrays` order): with the name tables, all an index depends on."""
        texts = [t.encode("utf-8") for t in self.entity_text]
        offsets, rows = self.edge_arrays
        digest = hashlib.sha256(struct.pack("<QQ", len(texts), len(rows)))
        digest.update(np.array(self.entity_type, "<u4").tobytes())
        digest.update(np.array(list(map(len, texts)), "<u8").tobytes())
        sources = np.repeat(np.arange(len(texts)), np.diff(offsets))
        digest.update(np.column_stack((sources, rows)).astype("<u4").tobytes())
        digest.update(b"".join(texts))
        return digest.digest()

    def is_literal(self, entity: int) -> bool:
        """True for dummy entities created from plain-text attribute values."""
        return self.entity_type[entity] == TEXT_TYPE_ID


def _json_record(line, lineno) -> tuple:
    """The record of a JSON line in the fields of a text line: (kind, key, name,
    value, literal); kind is "E", "A" or "" for the header."""
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
        return "", None, None, None, False
    if kind == "entity":
        return "E", field("key"), field("type"), field("text", ""), False
    if kind == "edge":
        target = obj.get("target")
        if isinstance(target, dict) and isinstance(target.get("ref"), str):
            value, literal = target["ref"], False
        elif isinstance(target, dict) and isinstance(target.get("text"), str):
            value, literal = target["text"], True
        else:
            raise GraphParseError("edge target must be {'ref': key} or {'text': literal}", lineno)
        return "A", field("source"), field("attr"), value, literal
    raise GraphParseError(f"unknown record kind {kind!r}", lineno)


def _not_utf8(path) -> GraphParseError:
    """The error naming `path` and its first line that is not UTF-8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return GraphParseError(f"{path} is not UTF-8 ({exc.reason} at byte {exc.start + 1})", lineno)
    return GraphParseError(f"{path} is not UTF-8")


def load_graph(source: Union[str, Path, IO[str], Iterable[str]]) -> KnowledgeGraph:
    """Load a knowledge graph from a path, an open text stream or a list of lines.

    Text and JSON-lines formats are auto-detected from the first record. Both
    run through one loop, which interns names, hands out ids and appends each
    record to the graph's lists in place, edges as read: the graph makes its
    token sets and sorted edge forms on first read. Raises GraphParseError for
    malformed records (with the line number) and GraphLinkError for references
    to undeclared entities.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return load_graph(fh)
        except UnicodeDecodeError:
            raise _not_utf8(source) from None
    g = KnowledgeGraph()
    entity_type, entity_text, entity_keys, edge_ids = g.entity_type, g.entity_text, g.entity_keys, g.edge_ids
    key_to_id, type_ids, attr_ids = g.key_to_id, {TEXT_TYPE_NAME: TEXT_TYPE_ID}, {}
    json_mode = None
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if json_mode is None:
            if not isinstance(line, str):
                raise GraphParseError(f"graph source must be text, not {type(line).__name__}", lineno)
            json_mode = line[0] == "{"
        if json_mode:
            kind, key, name, value, literal = _json_record(line, lineno)
        else:
            kind, _, rest = line.partition(" ")
            parts = rest.split(None, 2)
            if kind == "E":
                if len(parts) < 2:
                    raise GraphParseError("entity record needs <key> <type-name> [text]", lineno)
                key, name, value = parts if len(parts) == 3 else (*parts, "")
            elif kind == "A":
                if len(parts) != 3:
                    raise GraphParseError("edge record needs <source-key> <attr-name> <target>", lineno)
                key, name, value = parts
                literal = len(value) >= 2 and value[0] == value[-1] == '"'
                if value == "@":
                    raise GraphParseError("empty target reference", lineno)
                if value[0] != "@" and not literal:
                    raise GraphParseError("edge target must be @<key> or a double-quoted literal", lineno)
                value = value[1:] if value[0] == "@" else value[1:-1]
            else:
                raise GraphParseError(f"unknown record kind {kind!r}", lineno)
        if kind == "E":
            if key in key_to_id:
                raise GraphParseError(f"duplicate entity key {key!r}", lineno)
            key_to_id[key] = len(entity_type)
            entity_type.append(type_ids.setdefault(name, len(type_ids)))
            entity_text.append(value)
            entity_keys.append(key)
        elif kind == "A":
            source_id = key_to_id.get(key)
            if source_id is None:
                raise GraphLinkError(f"undeclared source entity {key!r}", lineno)
            attr = attr_ids.setdefault(name, len(attr_ids))
            if literal:  # materialize a dummy TEXT entity
                target = len(entity_type)
                entity_type.append(TEXT_TYPE_ID)
                entity_text.append(value)
                entity_keys.append(None)
            else:
                target = key_to_id.get(value)
                if target is None:
                    raise GraphLinkError(f"undeclared target entity {value!r}", lineno)
            edge_ids += source_id, attr, target
    g.type_names, g.attr_names = list(type_ids), list(attr_ids)
    return g
