"""Machine-readable run reports shared by the witness engines and the CLI.

Counts are serialized as decimal strings and ratios as exact fraction
strings so reports stay faithful to the exact arithmetic; elapsed_ms is
the only field allowed to vary between identical runs.  `details` holds
JSON values (tuples serialize as arrays), plus exact Fractions at its top
level, which serialize as fraction strings like the ratio.  `json_text`
writes every JSON document the CLI emits.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Optional

from .partitions import SetPartition, _value_class

__all__ = ["WitnessReport", "json_text"]

_INF = float("inf")


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def json_text(doc: Any) -> str:
    """doc as text, byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder.
    Here strings and keys still go through its C escaper, scalars follow
    its rules, and every fragment is appended to one list that is joined
    once, so no container's text is copied into its parent's.
    Counterexample shapes share (t, e(t)) entries: the (4,4,2)
    adversarial:200 report's 2,575 entries are 737 distinct ones.
    In a campaign's report every shape holding an entry holds the same
    tuple object, so each tuple is rendered once per depth, looked up by
    its identity, and its joined text reused.
    Identity is safe because the document keeps every object alive during
    the call.  Tuple subclasses render as lists, unmemoised.
    Document keys are strings; any other key raises TypeError.
    """
    memo: dict[tuple[str, int], str] = {}
    out: list[str] = []
    append = out.append

    def array(o, nl: str) -> None:
        if not o:
            append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "[" + inner
        for v in o:
            append(sep)
            render(v, inner)
            sep = comma
        append(nl + "]")

    def render(o, nl: str) -> None:
        if type(o) is tuple:  # the bulk of a document with shapes
            key = (nl, id(o))
            text = memo.get(key)
            if text is None:
                start = len(out)
                array(o, nl)
                text = memo[key] = "".join(out[start:])
                del out[start:]
            append(text)
        elif isinstance(o, str):
            append(_json_str(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            append(_float_text(o))
        elif isinstance(o, (list, tuple)):
            array(o, nl)
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = nl + "  "
            comma = "," + inner
            sep = "{" + inner
            for k, v in sorted(o.items()):
                append(sep + _json_str(k) + ": ")
                render(v, inner)
                sep = comma
            append(nl + "}")
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    render(doc, "\n")
    return "".join(out)


@_value_class()
class WitnessReport:
    """Outcome of a lemma-verification run.

    For a single adversary map the census counts bad pairs per candidate;
    for a campaign over many maps the fields describe the worst map seen
    and `details` carries the aggregate data.  Fields cannot be rebound,
    but `census` and `details` are dicts that may be updated in place, so
    a report has no hash.
    """

    __slots__ = ("params", "strategy", "seed", "witness", "bad_pair_count", "candidate_count",
                 "census", "ratio", "elapsed_ms", "details")

    def __init__(self, params: dict[str, Any], strategy: str, seed: Optional[int],
                 witness: Optional[SetPartition], bad_pair_count: int, candidate_count: int,
                 census: Optional[dict[str, int]] = None, ratio: Optional[Fraction] = None,
                 elapsed_ms: float = 0.0, details: Optional[dict[str, Any]] = None):
        values = (params, strategy, seed, witness, bad_pair_count, candidate_count,
                  {} if census is None else census, ratio, elapsed_ms, {} if details is None else details)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "params": self.params,
            "strategy": self.strategy,
            "seed": self.seed,
            "witness": self.witness.to_text() if self.witness is not None else None,
            "bad_pair_count": str(self.bad_pair_count),
            "candidate_count": str(self.candidate_count),
            "ratio": str(self.ratio) if self.ratio is not None else None,
            "census": self.census,
            "elapsed_ms": self.elapsed_ms,
            "details": {
                key: str(value) if isinstance(value, Fraction) else value
                for key, value in self.details.items()
            },
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "WitnessReport":
        """The report to_json_dict serialized; round trips to the same dict."""
        return cls(
            params=d["params"],
            strategy=d["strategy"],
            seed=d["seed"],
            witness=SetPartition.from_text(d["witness"]) if d["witness"] is not None else None,
            bad_pair_count=int(d["bad_pair_count"]),
            candidate_count=int(d["candidate_count"]),
            census=d["census"],
            ratio=Fraction(d["ratio"]) if d["ratio"] is not None else None,
            elapsed_ms=d["elapsed_ms"],
            details=d["details"],
        )

    CSV_FIELDS = (
        "strategy",
        "seed",
        "witness",
        "bad_pair_count",
        "candidate_count",
        "ratio",
        "elapsed_ms",
    )

    def to_csv(self) -> str:
        import csv
        import io

        d = self.to_json_dict()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=("params",) + self.CSV_FIELDS)
        writer.writeheader()
        row = {name: d[name] for name in self.CSV_FIELDS}
        row["params"] = json.dumps(d["params"], sort_keys=True)
        writer.writerow(row)
        return buf.getvalue()
