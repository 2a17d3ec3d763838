import collections
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.cli import main
from partlab.reports import WitnessReport, json_text
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


# verify-tree --k 2 --N 3 --strategy sampled:300:3 --out r.json, without elapsed_ms
SAMPLED_TREE_23 = """{
  "config": {
    "N": 3,
    "format": "json",
    "k": 2,
    "out": "r.json",
    "samples": 1000,
    "seed": 0,
    "strategy": "sampled:300:3",
    "subcommand": "verify-tree"
  },
  "report": {
    "bad_pair_count": "5",
    "candidate_count": "9",
    "census": {},
    "details": {
      "all_witnessed": true,
      "bound": "20/9",
      "bound_respected": true,
      "failures": 0,
      "least_N_below_one": 8,
      "lemma": "tree",
      "tested": 300,
      "worst_witness": [
        0,
        3
      ]
    },
    "params": {
      "N": 3,
      "k": 2
    },
    "ratio": "5/9",
    "seed": 3,
    "strategy": "sampled(300, seed=3)",
    "witness": null
  }
}
"""

# fusion-demo --L 9 --Mprime 4 --seed 3 --out r.json; the document has no elapsed_ms
FUSION_943 = """{
  "approximation_kept": true,
  "config": {
    "L": 9,
    "Mprime": 4,
    "ell": 0,
    "n0": 0,
    "out": "r.json",
    "seed": 3,
    "subcommand": "fusion-demo"
  },
  "input": "L=9;0,1,2,3,4,5,6,7,8",
  "output": "L=9;0,0,0,0,1,2,3,4,5",
  "trace_disjunction": true
}
"""


def _without_elapsed(text: str, fields: int = 1) -> str:
    text, count = re.subn(r'\n *"elapsed_ms": [0-9.e+-]+,', "", text)
    assert count == fields
    return text


def test_document_text_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", "exhaustive"]
    assert main(argv + ["--out", "r.json"]) == 1
    assert _without_elapsed((tmp_path / "r.json").read_text()) == EXHAUSTIVE_221
    assert main(argv) == 1
    stdout = _without_elapsed(capsys.readouterr().out)
    assert stdout == EXHAUSTIVE_221.replace('"out": "r.json"', '"out": null')


@pytest.mark.parametrize(
    "argv, code, pinned, fields",
    [
        (["verify-tree", "--k", "2", "--N", "3", "--strategy", "sampled:300:3"], 0, SAMPLED_TREE_23, 1),
        (["fusion-demo", "--L", "9", "--Mprime", "4", "--seed", "3"], 0, FUSION_943, 0),
    ],
    ids=["verify-tree", "fusion-demo"],
)
def test_more_document_texts_are_pinned(argv, code, pinned, fields, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "r.json"]) == code
    assert _without_elapsed((tmp_path / "r.json").read_text(), fields) == pinned
    assert main(argv) == code
    stdout = _without_elapsed(capsys.readouterr().out, fields)
    assert stdout == pinned.replace('"out": "r.json"', '"out": null')


# sha256 of the documents of perfbench's comb-sampled (one and two workers) and
# comb-adversarial campaigns at seed 7, printed to stdout, without their elapsed_ms and out lines
BENCHMARK_DIGESTS = {
    "sampled": "d0f2f07bd9288d8ce5cd76948823cd7136eaf292c37f93a236db2f7d18682a90",
    "sampled-jobs-2": "bb2064070acf1b71f4b834755477a56b999a1c89a4158f45e19364a2dbaa1e70",
    "adversarial": "8d4b7d27cfd40e12305b157ef5841ee51efee50f665ad843bb679559b6d0533b",
}


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("sampled", ["--k", "3", "--m", "2", "--N", "2", "--strategy", "sampled:20000:7"], 0),
        ("sampled-jobs-2", ["--k", "3", "--m", "2", "--N", "2", "--strategy", "sampled:20000:7", "--jobs", "2"], 0),
        ("adversarial", ["--k", "4", "--m", "4", "--N", "2", "--strategy", "adversarial:200:7"], 1),
    ],
)
def test_benchmark_documents_are_pinned(name, argv, code, capsys):
    assert main(["verify-comb", *argv]) == code
    text, count = re.subn(r'\n *"(elapsed_ms|out)": [^\n]*,', "", capsys.readouterr().out)
    assert count == 2
    assert hashlib.sha256(text.encode()).hexdigest() == BENCHMARK_DIGESTS[name]


Pair = collections.namedtuple("Pair", "a b")

# tuple objects that the cases below reach from several places, so the
# writer's identity lookup finds each of them again
SHARED = (1, (2, "x"))
HOLDS_PAIR = (Pair(1, (2,)), 3)  # a shared tuple holding a tuple subclass, which renders as a list


def _indented(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e16, 1, True, 0]),
    st.text(),
    st.sampled_from(["", "\x00\t\n\x1f\x7f\"\\", "\u00e9\u2028\U0001f600", "\ud800"]),
)

_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # repeated tuples at one depth exercise the writer's memo
        st.lists(st.lists(children, max_size=3).map(tuple), max_size=3).map(lambda xs: xs + xs[::-1]),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_equals_indented_json_dumps(self, doc):
        assert json_text(doc) == _indented(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            # equal, hashing alike, printed differently; each pair at one depth
            {"a": [(1, 1), (1, True)], "b": [(1, True), (1, 1)]},
            [[(0,), (0.0,)], [(0.0,), (0,)]],
            [(0.0,), (-0.0,), ((1,),), ((True,),)],
            [(1,), (True,), (1.0,), [(1.0,), (True,), (1,)]],
        ],
    )
    def test_memo_tells_equal_values_of_other_types_apart(self, doc):
        assert json_text(doc) == _indented(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            # empty containers inside a memoised tuple, twice at one depth
            [([], {}, ()), ([], {}, ())],
            # one tuple reached at two depths, then again at the first
            [(1, (2,)), [(1, (2,))], (1, (2,))],
            # a tuple inside a list inside a tuple, each level repeated
            [(1, [2, (3, "x")]), (1, [2, (3, "x")])],
            # a tuple subclass is rendered unmemoised, next to its equal tuple
            [Pair(1, 2), (1, 2), Pair(1, 2), {"p": Pair((1,), [2])}],
            None,
            True,
            0,
            -1.5,
            "top",
            [],
            {},
            (),
            # one tuple object at two depths, then again at the first
            [SHARED, [SHARED, {"k": SHARED}], SHARED],
            # equal tuples that are distinct objects, at one depth
            [tuple([1, (2, "x")]), tuple([1, (2, "x")]), SHARED],
            # one tuple object holding a namedtuple, reused at two depths
            [HOLDS_PAIR, HOLDS_PAIR, [HOLDS_PAIR], (HOLDS_PAIR, Pair(1, (2,)))],
        ],
    )
    def test_streaming_edges_equal_indented_json_dumps(self, doc):
        assert json_text(doc) == _indented(doc)

    @pytest.mark.parametrize("doc", [{"s": {1}}, {"t": ({1},)}, {"k": {2: None}}])
    def test_what_no_document_holds_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)


def _redumped(text: str) -> str:
    return _indented(json.loads(text)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-comb", "--k", "3", "--m", "2", "--N", "2", "--strategy", "adversarial:20:7"],
        ["find-threshold", "--k", "2", "--m", "2", "--n-max", "3", "--samples", "50", "--seed", "1"],
        ["fusion-demo", "--L", "8", "--Mprime", "3", "--seed", "4"],
        ["entropy-check", "--b-max", "8"],
    ],
)
def test_documents_equal_indented_json_dumps(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(argv)
    stdout = capsys.readouterr().out
    assert stdout == _redumped(stdout)
    main(argv + ["--out", "doc.json"])
    text = (tmp_path / "doc.json").read_text()
    assert text == _redumped(text)


def test_resumed_document_equals_indented_json_dumps(tmp_path, monkeypatch):
    monkeypatch.setattr("partlab.cli.CHECKPOINT_EVERY", 7)
    out = tmp_path / "r.json"
    argv = ["verify-comb", "--k", "2", "--m", "2", "--N", "1", "--strategy", "sampled:40:5", "--out", str(out)]
    assert main(argv) == 1
    fresh = out.read_text()
    # every chunk now comes back from the state file, its shapes as lists
    assert main(argv) == 1
    text = out.read_text()
    assert json.loads(text)["report"]["details"]["counterexample_shapes"]
    assert text == _redumped(text)
    assert _without_elapsed(text) == _without_elapsed(fresh)
