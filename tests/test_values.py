"""The value classes' contract: equality, hash, repr, immutability, construction and pickling.

Every value class behaves as a frozen dataclass, so set orders and every text
built from a repr stay as they were.  WitnessReport is one too, but holds dicts,
so it has no hash.  _LemmaContext is no value: it is compared and hashed by
identity, which _greedy_ties' cache keys on.
"""

import functools
import pickle
from fractions import Fraction

import pytest

from partlab.counting import CoarseningProfile
from partlab.e1 import AllocationScheme, BinaryGrid, round_robin_alloc
from partlab.errors import DomainError
from partlab.partitions import SetPartition
from partlab.prefixes import PartitionPrefix
from partlab.reports import WitnessReport
from partlab.tree import BlockPartitionKN
from partlab.witness import Adversarial, EMapTable, Exhaustive, Sampled, _greedy_ties, _LemmaContext, verify_comb


def _report(**kw):
    return WitnessReport({"k": 2}, "exhaustive", None, SetPartition((0, 1)), 1, 3, **kw)


FULL_REPORT = dict(census={"0,1": 1}, ratio=Fraction(1, 3), elapsed_ms=2.5, details={"tested": 4})

# class: (positional construction, keyword or default construction of the same value,
#         another value, repr, compared fields, hash: "fields" | None)
CASES = {
    SetPartition: (
        lambda: SetPartition((0, 1)), lambda: SetPartition(rgs=[0, 1]), SetPartition((0, 0)),
        "SetPartition(rgs=(0, 1))", ("rgs",), "fields",
    ),
    PartitionPrefix: (
        lambda: PartitionPrefix((0, 1, 0)), lambda: PartitionPrefix(rgs=iter((0, 1, 0))),
        PartitionPrefix((0, 1, 1)), "PartitionPrefix(rgs=(0, 1, 0))", ("rgs",), "fields",
    ),
    CoarseningProfile: (
        lambda: CoarseningProfile(((2, 1),), (((1, 1), (1, 0)),)),
        lambda: CoarseningProfile(splits=(((1, 1), (1, 0)),), blocks=((2, 1),)),
        CoarseningProfile(((2, 1),), (((2, 1),),)),
        "CoarseningProfile(blocks=((2, 1),), splits=(((1, 1), (1, 0)),))", ("blocks", "splits"), "fields",
    ),
    BinaryGrid: (
        lambda: BinaryGrid(((1, 0), (0, 1))), lambda: BinaryGrid(bits=[[1, 0], [0, 1]]),
        BinaryGrid(((1, 1),)), "BinaryGrid(bits=((1, 0), (0, 1)))", ("bits",), "fields",
    ),
    AllocationScheme: (
        lambda: round_robin_alloc(4),
        lambda: AllocationScheme(L=4, owner=(-1, -1, 0, 0), spine=(0, 1), lanes=((2, 3),)),
        round_robin_alloc(5), "AllocationScheme(L=4, owner=(-1, -1, 0, 0), spine=(0, 1), lanes=((2, 3),))",
        ("L", "owner", "spine", "lanes"), "fields",
    ),
    BlockPartitionKN: (
        lambda: BlockPartitionKN(({0, 1}, {2, 3}), 2), lambda: BlockPartitionKN(N=2, blocks=[[0, 1], [2, 3]]),
        BlockPartitionKN(({0, 1}, {2, 3}), 1), "BlockPartitionKN(blocks=(frozenset({0, 1}), frozenset({2, 3})), N=2)",
        ("blocks", "N"), "fields",
    ),
    EMapTable: (
        lambda: EMapTable(2, (1, 0)), lambda: EMapTable(values=(1, 0), n=2), EMapTable.identity(2),
        "EMapTable(n=2, values=(1, 0))", ("n", "values"), "fields",
    ),
    Exhaustive: (
        lambda: Exhaustive(1_000_000), Exhaustive, Exhaustive(5), "Exhaustive(cap=1000000)", ("cap",), "fields",
    ),
    Sampled: (
        lambda: Sampled(5, 0, 0), lambda: Sampled(count=5), Sampled(5, 0, 1), "Sampled(count=5, seed=0, start=0)",
        ("count", "seed", "start"), "fields",
    ),
    Adversarial: (
        lambda: Adversarial(3, 0, 0), lambda: Adversarial(count=3), Adversarial(3, 0, 1),
        "Adversarial(count=3, seed=0, start=0)", ("count", "seed", "start"), "fields",
    ),
    WitnessReport: (
        lambda: _report(census={}, ratio=None, elapsed_ms=0.0, details={}), _report, _report(**FULL_REPORT),
        "WitnessReport(params={'k': 2}, strategy='exhaustive', seed=None, witness=SetPartition(rgs=(0, 1)), "
        "bad_pair_count=1, candidate_count=3, census={}, ratio=None, elapsed_ms=0.0, details={})",
        ("params", "strategy", "seed", "witness", "bad_pair_count", "candidate_count", "census", "ratio",
         "elapsed_ms", "details"), None,
    ),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    make, make_by_keyword, other, text, fields, hashing = CASES[cls]
    a, b, kw = make(), make(), make_by_keyword()
    assert type(a) is type(kw) is type(other) is cls
    assert repr(a) == repr(kw) == text
    values = tuple(getattr(a, f) for f in fields)
    assert tuple(getattr(kw, f) for f in fields) == values
    # equality: same class and fields
    assert a.__eq__(object()) is NotImplemented
    assert a != other
    assert a == b == kw and a is not b
    if hashing == "fields":
        assert hash(a) == hash(kw) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(a)
    # immutability
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is values[fields.index(name)]
    # pickling through the constructor, as the frozen dataclasses these replace pickled
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is cls and repr(back) == text and back == a


def _submasks(s):
    return [v for v in range(s, -1, -1) if v & ~s == 0]


def _included(v, t):
    return v & ~t == 0


def test_lemma_context_is_compared_and_hashed_by_identity():
    a, b = (_LemmaContext(range(4), (0b11, 0b01), _submasks, _included) for _ in range(2))
    # down gives the keys in descending order; below holds them ascending
    assert list(a.below.items()) == list(b.below.items()) == [(0, 0b11), (1, 0b11), (2, 0b01), (3, 0b01)]
    assert a != b and a == a
    assert hash(a) == object.__hash__(a)
    assert _greedy_ties(a) is _greedy_ties(a)


def test_values_of_different_classes_with_equal_fields_differ():
    assert SetPartition((0, 1)) != PartitionPrefix((0, 1))
    assert len({SetPartition((0, 1)), PartitionPrefix((0, 1))}) == 2


def test_partitions_and_prefixes_share_an_rgs_base_but_not_equality():
    assert not isinstance(PartitionPrefix((0,)), SetPartition)
    assert not isinstance(SetPartition((0,)), PartitionPrefix)
    assert PartitionPrefix((0, 1)) != SetPartition((0, 1))
    assert SetPartition((0, 1)) != PartitionPrefix((0, 1))
    for r in [(), (0,), (0, 1, 0), (0, 1, 2, 1)]:
        assert hash(SetPartition(r)) == hash((r,))
        assert SetPartition(r) == SetPartition(list(r))
    assert hash(PartitionPrefix((0, 1))) == hash(((0, 1),))
    # one constructor, block count and codec, with each class's own text
    for cls, text in ((SetPartition, "0,1,0"), (PartitionPrefix, "L=3;0,1,0")):
        p = cls.from_text(text)
        assert type(p) is cls and p.rgs == (0, 1, 0) and p.num_blocks == 2 and p.to_text() == str(p) == text
        assert cls.discrete(3).rgs == (0, 1, 2)
        with pytest.raises(DomainError, match=r"^not a restricted growth string: \(0, 2\)$"):
            cls((0, 2))
    assert str(SetPartition(())) == "(empty)" and SetPartition.from_text(" ") == SetPartition(())


def test_block_partition_ground_is_derived_not_compared():
    P = BlockPartitionKN(({0, 1}, {2, 3}), 2)
    assert P.ground == frozenset({0, 1, 2, 3})
    assert "ground" not in repr(P)
    assert hash(P) == hash((P.blocks, P.N))
    assert pickle.loads(pickle.dumps(P)).ground == P.ground


def test_campaign_job_chunk_table_and_report_pickle_round_trip():
    job = pickle.loads(pickle.dumps(functools.partial(verify_comb, 3, 2, 2)))
    assert job.func is verify_comb and job.args == (3, 2, 2)
    chunk = Sampled(10_000, seed=7, start=10_000)
    assert pickle.loads(pickle.dumps(chunk)) == chunk
    table = EMapTable.identity(3)
    assert pickle.loads(pickle.dumps(table)) == table
    report = verify_comb(2, 2, 2, Sampled(5, seed=1))
    assert report.witness is not None
    back = pickle.loads(pickle.dumps(report))
    assert back == report and back.witness == report.witness
    assert back.to_json_dict() == report.to_json_dict()
