import json
import re

from partlab.cli import main
from partlab.reports import WitnessReport
from partlab.tree import verify_tree
from partlab.witness import (
    Adversarial,
    EMapTable,
    Exhaustive,
    Sampled,
    bad_pairs,
    partition_space,
    verify_comb,
)


def _round_trip_text(rep: WitnessReport) -> tuple[str, str]:
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    again = WitnessReport.from_json_dict(json.loads(text))
    return text, json.dumps(again.to_json_dict(), sort_keys=True)


class TestRoundTrip:
    def test_comb_campaign_with_counterexample_shapes(self):
        rep = verify_comb(3, 2, 2, Adversarial(20, seed=7))
        assert rep.details["counterexample_shapes"]
        first, again = _round_trip_text(rep)
        assert first == again

    def test_tree_report(self):
        rep = verify_tree(2, 3, Sampled(30, seed=5))
        first, again = _round_trip_text(rep)
        assert first == again

    def test_bad_pairs_report(self):
        size = len(partition_space(6))
        e = EMapTable(6, tuple((7 * i + 3) % size for i in range(size)))
        rep = bad_pairs(e, 3, 2, 2)
        first, again = _round_trip_text(rep)
        assert first == again


class TestSerialisation:
    def test_tree_bound_is_an_exact_fraction_string(self):
        rep = verify_tree(2, 3, Sampled(30, seed=5))
        assert rep.to_json_dict()["details"]["bound"] == "20/9"

    def test_details_are_a_new_dict(self):
        rep = verify_comb(2, 2, 1, Exhaustive())
        rep.to_json_dict()["details"]["empirical"] = True
        assert "empirical" not in rep.details


# verify-comb --k 2 --m 2 --N 1 --strategy exhaustive --out r.json, without elapsed_ms
EXHAUSTIVE_221 = """{
  "config": {
    "N": 1,
    "format": "json",
    "jobs": 1,
    "k": 2,
    "m": 2,
    "out": "r.json",
    "samples": 1000,
    "seed": 0,
    "strategy": "exhaustive",
    "subcommand": "verify-comb"
  },
  "report": {
    "bad_pair_count": "1",
    "candidate_count": "1",
    "census": {
      "0,1": 1
    },
    "details": {
      "all_witnessed": false,
      "counterexample_shapes": [
        [
          [
            [
              0,
              0
            ],
            [
              0,
              1
            ]
          ]
        ]
      ],
      "failures": 2,
      "pigeonhole_ok": true,
      "tested": 4
    },
    "params": {
      "N": 1,
      "k": 2,
      "m": 2
    },
    "ratio": "1",
    "seed": null,
    "strategy": "exhaustive",
    "witness": null
  }
}
"""


def _without_elapsed(text: str) -> str:
    text, count = re.subn(r'\n *"elapsed_ms": [0-9.e+-]+,', "", text)
    assert count == 1
    return text


def test_document_text_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", "exhaustive"]
    assert main(argv + ["--out", "r.json"]) == 1
    assert _without_elapsed((tmp_path / "r.json").read_text()) == EXHAUSTIVE_221
    assert main(argv) == 1
    stdout = _without_elapsed(capsys.readouterr().out)
    assert stdout == EXHAUSTIVE_221.replace('"out": "r.json"', '"out": null')
