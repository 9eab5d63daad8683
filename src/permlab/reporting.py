"""JSON rendering of result objects.

Exact rationals are rendered both ways ({"ratio": "p/q", "value": float});
records (named tuples) become objects of their fields, and dicts and other
sequences flatten to plain JSON types. Serialization is
key-sorted so identical results are byte-identical documents, and exact
integer counts render at any size, past Python's int-to-str digit limit.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def _decimal(x: int) -> str:
    """Decimal digits of ``x`` at any size.

    ``str`` refuses ints past ``sys.get_int_max_str_digits()`` (4300 digits
    by default, never below 640), so a big ``x`` is split at a power of ten
    into halves that ``str`` accepts.
    """
    if x.bit_length() <= 2000:            # at most 603 digits
        return str(x)
    if x < 0:
        return "-" + _decimal(-x)
    k = x.bit_length() * 3 // 20          # about half the digits
    high, low = divmod(x, 10 ** k)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def ratio_text(q: Fraction) -> str:
    """``q`` as ``"p/q"`` in full, whatever its size."""
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)   # while encoding only: files parse under it
    try:
        return json.dumps(ready, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(limit)
