"""Versioned chain-file format: JSON with probabilities and distances
serialized as decimal strings (repr) so round-trips are bit-exact.

A matrix-form file's distance table is read from the strings json decodes
in one pass of the transport kernel (decimal_table), with the bits float()
gives.  A payload that pass does not take (numbers, spellings float()
reads only after stripping whitespace or underscores, malformed rows) is
converted entry by entry as before, and raises the same errors.  Rows of
the metric, graph edges and kernel entries must be JSON lists; a string or
an object in their place is an error that names it."""

from __future__ import annotations

import itertools
import json

import numpy as np

from .chain import Chain, build_chain
from .errors import ChainFileError, CoricciError, RepeatedPoint
from .metric import FiniteMetricSpace, space_from_edges, space_from_matrix
from .transport import _kernel

FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def stringify_chain(chain: Chain) -> Chain:
    """Rename points to their string form (file identities) keeping the
    metric and kernel bit-identical."""
    names = {}
    for p in chain.space.points:
        if (first := names.setdefault(str(p), p)) is not p:
            raise ChainFileError(f"point string identifiers collide: {first!r} and {p!r} "
                                 f"are both written {str(p)!r}")
    space = FiniteMetricSpace(tuple(names), chain.space.dist)
    return Chain(space, chain.kernel, chain.dt)


def format_chain(chain: Chain) -> str:
    """The chain file's text: the bytes json.dump(doc, fh, indent=1) writes
    for the file's document, then a newline, built in one pass.  Floats are
    spelled with repr, as json spells them, and point names with
    json.dumps."""
    chain = stringify_chain(chain)
    names = list(map(json.dumps, chain.space.points))
    metric = [_json_block([f'"{v!r}"' for v in row], 3)
              for row in chain.space.dist.tolist()]
    kernel = []
    for name, row in zip(names, chain.dense()):
        supp = np.nonzero(row > 0)[0]
        entries = [_json_block([names[j], f'"{p!r}"'], 3)
                   for j, p in zip(supp.tolist(), row[supp].tolist())]
        kernel.append(f"{name}: {_json_block(entries, 2)}")
    fields = [
        f'"format_version": {FORMAT_VERSION}',
        f'"points": {_json_block(names, 1)}',
        '"metric": ' + _json_block(['"type": "matrix"',
                                    f'"payload": {_json_block(metric, 2)}'], 1, "{}"),
        f'"kernel": {_json_block(kernel, 1, "{}")}',
    ]
    if chain.dt is not None:
        fields.append(f'"dt": "{_fmt(chain.dt)}"')
    return _json_block(fields, 0, "{}") + "\n"


def _json_block(items, level, brackets="[]"):
    """A JSON list (or, with brackets "{}", an object) at nesting depth
    level, as json.dumps(indent=1) writes it, from its items (or "key:
    value" members) already spelled."""
    if not items:
        return brackets
    pad = "\n" + " " * (level + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{' ' * level}{brackets[1]}"


def dump_chain(chain: Chain) -> dict:
    """The chain file's document, as json.loads reads it back."""
    return json.loads(format_chain(chain))


def save_chain(chain: Chain, path: str) -> None:
    """Write the chain file; a chain that cannot be written leaves no file."""
    text = format_chain(chain)
    with open(path, "w") as fh:
        fh.write(text)


def _lists(payload, item: str) -> list:
    """payload, when it is a list of lists; else the error that names the
    first of its items that is not a list."""
    if not isinstance(payload, list):
        raise ChainFileError(f"field 'metric.payload': expected a list of {item}s")
    for k, entry in enumerate(payload):
        if not isinstance(entry, list):
            raise ChainFileError(f"field 'metric.payload': {item} {k} is not a list")
    return payload


def parse_chain(doc: dict) -> Chain:
    if not isinstance(doc, dict):
        raise ChainFileError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ChainFileError(
            f"field 'format_version': expected {FORMAT_VERSION}, "
            f"got {doc.get('format_version')!r}"
        )
    points = doc.get("points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ChainFileError("field 'points': expected a list of strings")
    metric = doc.get("metric")
    if not isinstance(metric, dict) or "type" not in metric:
        raise ChainFileError("field 'metric': expected an object with 'type'")
    try:
        if metric["type"] == "matrix":
            payload = metric["payload"]
            # One kernel pass reads a table of decimal strings; any other
            # payload is converted entry by entry, with the errors of float().
            table = _kernel.decimal_table(payload) if type(payload) is list else None
            if table is None:
                table = [list(map(float, row)) for row in _lists(payload, "row")]
            space = space_from_matrix(points, table)
        elif metric["type"] == "graph":
            edges = [(u, v, float(w)) for u, v, w in _lists(metric["payload"], "edge")]
            space = space_from_edges(points, edges)
        else:
            raise ChainFileError(
                f"field 'metric.type': unknown type {metric['type']!r}"
            )
    except ChainFileError:
        raise
    except RepeatedPoint as exc:
        raise ChainFileError(f"field 'points': {exc}") from None
    except CoricciError as exc:
        raise ChainFileError(f"field 'metric.payload': {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainFileError(f"field 'metric.payload': malformed ({exc})") from None

    kernel = doc.get("kernel")
    if not isinstance(kernel, dict):
        raise ChainFileError("field 'kernel': expected an object")
    # Every entry a [target, prob] list, tested in one pass; only a kernel
    # that fails it is tested row by row, to name the first bad row.
    values = list(kernel.values())
    flat = (list(itertools.chain.from_iterable(values))
            if all(map(isinstance, values, itertools.repeat(list))) else [None])
    pairs = all(map(isinstance, flat, itertools.repeat(list))) and set(map(len, flat)) <= {2}
    rows = {}
    for p, entries in kernel.items():
        if not (pairs or (isinstance(entries, list)
                          and all(isinstance(e, list) and len(e) == 2 for e in entries))):
            raise ChainFileError(
                f"field 'kernel.{p}': expected a list of [target, prob] pairs")
        try:
            row = rows[p] = {target: float(prob) for target, prob in entries}
        except (TypeError, ValueError) as exc:
            raise ChainFileError(f"field 'kernel.{p}': malformed ({exc})") from None
        if len(row) < len(entries):
            targets = [target for target, _prob in entries]
            twice = next(t for t in targets if targets.count(t) > 1)
            raise ChainFileError(
                f"field 'kernel.{p}': target {twice!r} listed more than once")
    dt = doc.get("dt")
    try:
        return build_chain(space, rows, None if dt is None else float(dt))
    except CoricciError as exc:
        raise ChainFileError(f"field 'kernel': {exc}") from None


def load_chain(path: str) -> Chain:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ChainFileError(f"{path}: invalid JSON at line {exc.lineno}") from None
    return parse_chain(doc)
