"""JSON rendering of result objects.

Exact rationals are rendered both ways ({"ratio": "p/q", "value": float});
records (named tuples) become objects of their fields, and dicts and other
sequences flatten to plain JSON types. Serialization is
key-sorted so identical results are byte-identical documents. Exact
ratios and integer counts render in full at any size: ``ratio_text`` and
``dumps`` lift Python's int-to-str digit limit while they write digits,
through the one ``_any_digits`` block, and restore the caller's limit.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction


@contextmanager
def _any_digits():
    """No int-to-str digit limit inside the block, and the caller's limit
    again after it, so input read elsewhere still parses under that limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def ratio_text(q: Fraction) -> str:
    """``q`` as ``"p/q"`` in full, whatever its size."""
    with _any_digits():
        return f"{q.numerator}/{q.denominator}"


_PLAIN = (str, int, float, bool, type(None))


def json_ready(obj):
    if type(obj) in _PLAIN:   # already JSON
        return obj
    if isinstance(obj, Fraction):
        return {"ratio": ratio_text(obj), "value": float(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):   # a record
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def dumps(obj) -> str:
    ready = json_ready(obj)
    with _any_digits():
        return json.dumps(ready, sort_keys=True)
