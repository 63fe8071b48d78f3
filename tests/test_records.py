"""The frozen-record contract every public record keeps: construction,
equality, hash, repr, immutability, pickling and subclassing."""
import copy
import pickle

import pytest

from bipsand import (
    BipartiteShape, CensusRow, Configuration, FerrersDag, FerrersDiagram, FerrersPair,
    ForbiddenWitness, LabelledFerrersPair, MotzkinWord, ParallelogramPolyomino, ToppleOracle,
    Vertex,
)

_DIAGRAM = FerrersDiagram((1, 1, 2))
_PAIR = FerrersPair(_DIAGRAM, FerrersDiagram((1, 2, 2)))

# (class, keyword arguments, the instance's repr)
RECORDS = [
    (BipartiteShape, dict(m=2, n=3), "BipartiteShape(m=2, n=3)"),
    (Vertex, dict(side="top", index=1), "Vertex(side='top', index=1)"),
    (Configuration, dict(shape=BipartiteShape(2, 3), top=(0, 2), bottom=(2, 2, 2)),
     "Configuration(shape=BipartiteShape(m=2, n=3), top=(0, 2), bottom=(2, 2, 2))"),
    (ToppleOracle, dict(seed=5, p=0.5), "ToppleOracle(seed=5, p=0.5)"),
    (ForbiddenWitness, dict(model="ssm", top_indices=(1,), bottom_indices=(2,)),
     "ForbiddenWitness(model='ssm', top_indices=(1,), bottom_indices=(2,))"),
    (FerrersDiagram, dict(rows=(1, 1, 2)), "FerrersDiagram(rows=(1, 1, 2))"),
    (FerrersPair, dict(first=_PAIR.first, second=_PAIR.second),
     "FerrersPair(first=FerrersDiagram(rows=(1, 1, 2)), second=FerrersDiagram(rows=(1, 2, 2)))"),
    (LabelledFerrersPair, dict(pair=_PAIR, column_labels=(2, 1), row_labels=(2, 1, 3)),
     "LabelledFerrersPair(pair=FerrersPair(first=FerrersDiagram(rows=(1, 1, 2)), "
     "second=FerrersDiagram(rows=(1, 2, 2))), column_labels=(2, 1), row_labels=(2, 1, 3))"),
    (FerrersDag, dict(model="asm", shape=BipartiteShape(1, 1), vertices=(_DIAGRAM,), edges=()),
     "FerrersDag(model='asm', shape=BipartiteShape(m=1, n=1), "
     "vertices=(FerrersDiagram(rows=(1, 1, 2)),), edges=())"),
    (ParallelogramPolyomino, dict(upper="NENNEE", lower="EEENNN"),
     "ParallelogramPolyomino(upper='NENNEE', lower='EEENNN')"),
    (MotzkinWord, dict(steps=("HE", "U", "HN", "D")), "MotzkinWord(steps=('HE', 'U', 'HN', 'D'))"),
    (CensusRow, dict(m=2, n=2, model="asm", sorted_only=False, total=12, level_counts=(7, 4, 1)),
     "CensusRow(m=2, n=2, model='asm', sorted_only=False, total=12, level_counts=(7, 4, 1))"),
]
_IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in x.__match_args__)


@pytest.fixture(params=RECORDS, ids=_IDS)
def record(request):
    cls, kwargs, text = request.param
    return cls, kwargs, text, cls(**kwargs)


def test_fields_are_the_keyword_arguments_in_order(record):
    cls, kwargs, _, x = record
    assert x.__match_args__ == tuple(kwargs)
    assert _fields(x) == tuple(kwargs.values())
    assert cls(*kwargs.values()) == x


def test_equality_is_by_class_and_field_tuple(record):
    cls, kwargs, _, x = record
    twin = cls(**kwargs)
    assert twin is not x and twin == x and not twin != x
    # another record, or the field tuple itself, is never equal
    other, other_kwargs, _ = RECORDS[_IDS.index(cls.__name__) - 1]
    stranger = other(**other_kwargs)
    assert x.__eq__(stranger) is NotImplemented and x != stranger
    assert x.__eq__(_fields(x)) is NotImplemented and x != _fields(x)


def test_hash_is_the_field_tuples(record):
    cls, kwargs, _, x = record
    assert hash(x) == hash(_fields(x)) == hash(cls(**kwargs))
    assert len({x, cls(**kwargs)}) == 1


def test_repr_names_every_field(record):
    _, _, text, x = record
    assert repr(x) == text


def test_fields_cannot_be_assigned_or_deleted(record):
    _, kwargs, _, x = record
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert _fields(x) == tuple(kwargs.values()) and not hasattr(x, "extra")


def test_pickle_and_deepcopy_round_trip(record):
    _, _, text, x = record
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert y == x and hash(y) == hash(x) and repr(y) == text
        assert vars(y) == vars(x)


def test_defaults_are_class_attributes():
    assert ToppleOracle(5).p == ToppleOracle.p == 0.5
    assert ToppleOracle(seed=5) == ToppleOracle(5, 0.5) != ToppleOracle(5, p=0.3)
    assert Vertex("sink") == Vertex(side="sink", index=0) and Vertex.index == 0
    with pytest.raises(TypeError):
        ToppleOracle(p=0.5)


def test_match_binds_fields_by_position():
    match Configuration.from_text("0,2;2,2,2"):
        case Configuration(BipartiteShape(m, n), top, bottom):
            assert (m, n, top, bottom) == (2, 3, (0, 2), (2, 2, 2))
        case _:
            pytest.fail("no match")


class TaggedOracle(ToppleOracle):
    """A subclass whose __post_init__ extends the record's own."""

    def __post_init__(self):
        super().__post_init__()
        self.tag = ("tagged", self.seed)


def test_a_subclass_runs_its_post_init_and_may_set_other_attributes():
    x = TaggedOracle(5, p=0.3)
    assert x.tag == ("tagged", 5) and x._threshold == ToppleOracle(5, 0.3)._threshold
    assert [x.bit(0, f, 2) for f in range(40)] == [ToppleOracle(5, 0.3).bit(0, f, 2)
                                                   for f in range(40)]
    assert repr(x) == "TaggedOracle(seed=5, p=0.3)"
    assert x == TaggedOracle(5, 0.3) and hash(x) == hash(ToppleOracle(5, 0.3))
    assert x != ToppleOracle(5, 0.3) and ToppleOracle(5, 0.3) != x
    x.note = 1
    del x.note
    with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
        x.seed = 6
    y = pickle.loads(pickle.dumps(x))
    assert y == x and y.tag == x.tag
    # the stock record still refuses every attribute
    with pytest.raises(AttributeError, match="cannot assign to field 'tag'"):
        ToppleOracle(5).tag = 1

