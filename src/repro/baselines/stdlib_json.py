"""Reference point: CPython's built-in ``json`` + tree walk.

Not a paper baseline — it is the engine a Python user gets for free:
``json.loads`` (a C parser) followed by the oracle tree evaluator.  It
exists to keep the reproduction honest about language-level constants:
the paper compares C++ systems at equal implementation maturity, and
this engine shows where a C-accelerated DOM parse lands among our
pure-Python engines (see ``bench_extension_stdlib.py``).

Because the DOM has no byte spans, matches are re-serialized values
(``Match.text`` is canonical JSON, not an input slice) — ``values()``
is comparable across engines, raw text is not.
"""

from __future__ import annotations

import json

from repro.engine.base import EngineBase
from repro.engine.output import MatchList, encode_line
from repro.errors import JsonSyntaxError
from repro.jsonpath.ast import Path
from repro.jsonpath.parser import parse_path
from repro.reference.evaluator import evaluate


def _enforce_depth(value, max_depth: int) -> None:
    """Depth-check a parsed DOM with an explicit stack (no recursion).

    ``json.loads`` is a C parser whose own recursion limit sits far above
    any useful ``max_depth``, so the guard must be applied after the fact
    to keep this engine's limit semantics uniform with the others.
    """
    from repro.errors import DepthLimitError

    stack = [(value, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dict):
            children = node.values()
        elif isinstance(node, list):
            children = node
        else:
            continue
        if depth > max_depth:
            raise DepthLimitError(
                f"stdlib: nesting depth exceeds max_depth={max_depth}",
                depth=depth,
            )
        for child in children:
            if isinstance(child, (dict, list)):
                stack.append((child, depth + 1))


class StdlibJson(EngineBase):
    """``json.loads`` + tree traversal (the everyday-Python yardstick)."""

    def __init__(self, query: str | Path, collect_stats: bool = False, limits=None) -> None:
        from repro.resilience.guards import effective_limits

        self.path = parse_path(query) if isinstance(query, str) else query
        self.collect_stats = collect_stats
        self.limits = effective_limits(limits)

    def run(self, data: bytes | str) -> MatchList:
        from repro.resilience.guards import depth_error_from_recursion

        if isinstance(data, bytes):
            self.limits.check_record_size(len(data))
            text = data.decode("utf-8", "surrogateescape")
        else:
            self.limits.check_record_size(len(data.encode("utf-8", "surrogateescape")))
            text = data
        try:
            # repro: ignore[RS010] -- the parse-everything baseline: its
            # measured contract is exactly the eager decode the engines avoid.
            value = json.loads(text)
        except ValueError as exc:
            raise JsonSyntaxError(f"stdlib json rejected the record: {exc}", 0) from None
        except RecursionError as exc:
            # json.loads recurses per nesting level in its C scanner.
            raise depth_error_from_recursion(exc, "stdlib") from None
        if self.limits.max_depth is not None:
            _enforce_depth(value, self.limits.max_depth)
        matches = MatchList()
        try:
            for hit in evaluate(self.path, value):
                encoded = encode_line(hit)
                matches.add(encoded, 0, len(encoded))
        except RecursionError as exc:
            raise depth_error_from_recursion(exc, "stdlib") from None
        return matches
