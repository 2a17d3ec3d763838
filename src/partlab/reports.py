"""Machine-readable run reports shared by the witness engines and the CLI.

Counts are serialized as decimal strings and ratios as exact fraction
strings so reports stay faithful to the exact arithmetic; elapsed_ms is
the only field allowed to vary between identical runs.  `details` holds
JSON values (tuples serialize as arrays), plus exact Fractions at its top
level, which serialize as fraction strings like the ratio.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .partitions import SetPartition

__all__ = ["WitnessReport"]


@dataclass
class WitnessReport:
    """Outcome of a lemma-verification run.

    For a single adversary map the census counts bad pairs per candidate;
    for a campaign over many maps the fields describe the worst map seen
    and `details` carries the aggregate data.
    """

    params: dict[str, Any]
    strategy: str
    seed: Optional[int]
    witness: Optional[SetPartition]
    bad_pair_count: int
    candidate_count: int
    census: dict[str, int] = field(default_factory=dict)
    ratio: Optional[Fraction] = None
    elapsed_ms: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

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
        d = self.to_json_dict()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=("params",) + self.CSV_FIELDS)
        writer.writeheader()
        row = {name: d[name] for name in self.CSV_FIELDS}
        row["params"] = json.dumps(d["params"], sort_keys=True)
        writer.writerow(row)
        return buf.getvalue()
