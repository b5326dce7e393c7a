"""Versioned chain-file format: JSON with probabilities and distances
serialized as decimal strings (repr) so round-trips are bit-exact."""

from __future__ import annotations

import json

import numpy as np

from .chain import Chain, build_chain
from .errors import ChainFileError, CoricciError
from .metric import FiniteMetricSpace, space_from_edges, space_from_matrix

FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def stringify_chain(chain: Chain) -> Chain:
    """Rename points to their string form (file identities) keeping the
    metric and kernel bit-identical."""
    points = [str(p) for p in chain.space.points]
    if len(set(points)) != len(points):
        raise ChainFileError("point string identifiers collide")
    space = FiniteMetricSpace(tuple(points), chain.space.dist)
    return Chain(space, chain.kernel, chain.dt)


def dump_chain(chain: Chain) -> dict:
    chain = stringify_chain(chain)
    dense = chain.dense()
    kernel = {}
    for i, p in enumerate(chain.space.points):
        supp = np.nonzero(dense[i] > 0)[0]
        kernel[p] = [[chain.space.points[j], _fmt(dense[i, j])] for j in supp]
    doc = {
        "format_version": FORMAT_VERSION,
        "points": list(chain.space.points),
        "metric": {
            "type": "matrix",
            "payload": [[_fmt(v) for v in row] for row in chain.space.dist],
        },
        "kernel": kernel,
    }
    if chain.dt is not None:
        doc["dt"] = _fmt(chain.dt)
    return doc


def save_chain(chain: Chain, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(dump_chain(chain), fh, indent=1)
        fh.write("\n")


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
            rows = [list(map(float, row)) for row in metric["payload"]]
            space = space_from_matrix(points, rows)
        elif metric["type"] == "graph":
            edges = [(u, v, float(w)) for u, v, w in metric["payload"]]
            space = space_from_edges(points, edges)
        else:
            raise ChainFileError(
                f"field 'metric.type': unknown type {metric['type']!r}"
            )
    except ChainFileError:
        raise
    except CoricciError as exc:
        raise ChainFileError(f"field 'metric.payload': {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainFileError(f"field 'metric.payload': malformed ({exc})") from None

    kernel = doc.get("kernel")
    if not isinstance(kernel, dict):
        raise ChainFileError("field 'kernel': expected an object")
    rows = {}
    for p, entries in kernel.items():
        try:
            rows[p] = {target: float(prob) for target, prob in entries}
        except (TypeError, ValueError) as exc:
            raise ChainFileError(f"field 'kernel.{p}': malformed ({exc})") from None
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
