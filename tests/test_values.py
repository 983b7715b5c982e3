import copy
import pickle

import pytest
from test_cli import fresh_python

from tamari_atlas import (CertificateAssignment, CheckResult, DegreeTree,
                          DyckPath, HypermapCode, IntervalStats, MapStats,
                          NewInterval, PlaneTree, TreeStats)
from tamari_atlas.dyck import _Value

# per type: a value, an equal one built apart, a different one, and the
# value's repr; the checked types come first
VALUES = [
    (DyckPath('uudd'), DyckPath('uudd'), DyckPath('udud'),
     "DyckPath(steps='uudd')"),
    (NewInterval.parse('ududud;uududd'),
     NewInterval(DyckPath('ududud'), DyckPath('uududd')),
     NewInterval.parse('ududud;uuuddd'),
     "NewInterval(lower=DyckPath(steps='ududud'), "
     "upper=DyckPath(steps='uududd'))"),
    (PlaneTree(((1, 3), (2,), (), ())), PlaneTree(((1, 3), (2,), (), ())),
     PlaneTree(((1,), (2,), ())),
     "PlaneTree(children=((1, 3), (2,), (), ()))"),
    (DegreeTree(PlaneTree(((1,), (2,), ())), (1, 0)),
     DegreeTree(PlaneTree(((1,), (2,), ())), (1, 0)),
     DegreeTree(PlaneTree(((1,), (2,), ())), (0, 0)),
     "DegreeTree(tree=PlaneTree(children=((1,), (2,), ())), "
     "edge_labels=(1, 0))"),
    # the second is renumbered into the first when built
    (HypermapCode(2, (1, 2), (2, 1), 1), HypermapCode(2, (1, 2), (2, 1), 2),
     HypermapCode(2, (2, 1), (1, 2), 1),
     "HypermapCode(n=2, sigma=(1, 2), alpha=(2, 1), root=1)"),
    (IntervalStats(1, 1, 0, 2), IntervalStats(1, 1, 0, 2),
     IntervalStats(1, 1, 0, 1),
     "IntervalStats(c00=1, c01=1, c11=0, rcont=2)"),
    (TreeStats(1, 1, 1, 1), TreeStats(1, 1, 1, 1), TreeStats(1, 1, 1, 0),
     "TreeStats(lnode=1, znode=1, pnode=1, rlabel=1)"),
    (MapStats(1, 0, 1, 0), MapStats(1, 0, 1, 0), MapStats(2, 1, 1, 2),
     "MapStats(black=1, white=0, face=1, outdeg=0)"),
    (CertificateAssignment((1, 1, 2), (0, 2, 1)),
     CertificateAssignment((1, 1, 2), (0, 2, 1)),
     CertificateAssignment((0, 1, 2), (1, 1, 1)),
     "CertificateAssignment(certificate=(1, 1, 2), "
     "multiplicity=(0, 2, 1))"),
    (CheckResult('counting', True, 'n<=6'),
     CheckResult('counting', True, 'n<=6'),
     CheckResult('counting', False, 'n<=6'),
     "CheckResult(check_id='counting', ok=True, detail='n<=6')"),
]
CHECKED = 5
IDS = [type(value).__name__ for value, *_ in VALUES]
FIELDS = {
    DyckPath: ('steps', 'vector'), NewInterval: ('lower', 'upper'),
    PlaneTree: ('children',), DegreeTree: ('tree', 'edge_labels'),
    HypermapCode: ('n', 'sigma', 'alpha', 'root'),
    IntervalStats: ('c00', 'c01', 'c11', 'rcont'),
    TreeStats: ('lnode', 'znode', 'pnode', 'rlabel'),
    MapStats: ('black', 'white', 'face', 'outdeg'),
    CertificateAssignment: ('certificate', 'multiplicity'),
    CheckResult: ('check_id', 'ok', 'detail'),
}


@pytest.mark.parametrize('value,same,other,text', VALUES, ids=IDS)
def test_values_compare_and_hash_by_fields(value, same, other, text):
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other


def test_a_path_compares_without_its_vector():
    path = DyckPath('uudd')
    object.__setattr__(path, 'vector', ())
    assert path == DyckPath('uudd') and hash(path) == hash(DyckPath('uudd'))


def bare(cls, values, **slots):
    """An instance of cls with the given field values and other slots,
    built around its check, which the equality rule does not depend on."""
    value = object.__new__(cls)
    for name, x in (*zip(cls._fields, values), *slots.items()):
        object.__setattr__(value, name, x)
    return value


@pytest.mark.parametrize('cls', _Value.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_value_types_compare_and_hash_by_their_fields_alone(cls):
    # every value type, found as a subclass of _Value: equal fields give
    # equal values with equal hashes, whatever the other slots hold; a
    # change to any one field makes them unequal; another class with the
    # same fields is unequal, and a tuple is no value at all
    fields = [('field', k) for k in range(len(cls._fields))]
    others = [name for name in cls.__slots__ if name not in cls._fields]
    a = bare(cls, fields, **{name: 1 for name in others})
    b = bare(cls, fields, **{name: 2 for name in others})
    assert a == b and not a != b and hash(a) == hash(b)
    for k in range(len(fields)):
        changed = bare(cls, fields[:k] + [('other', k)] + fields[k + 1:])
        assert a != changed and not a == changed, cls._fields[k]
    twin = type(cls.__name__, (cls,), {'__slots__': ()})
    assert a != bare(twin, fields) and bare(twin, fields) != a
    assert a.__eq__(tuple(fields)) is NotImplemented
    assert a != tuple(fields)


def test_the_checked_types_are_the_values_found():
    # the contract above runs over _Value's subclasses; a base put
    # between them and _Value would hide them from it
    assert {type(value) for value, *_ in VALUES[:CHECKED]} <= \
        set(_Value.__subclasses__())


def test_no_two_checked_types_are_equal():
    checked = [value for value, *_ in VALUES[:CHECKED]]
    for a in checked:
        for b in checked:
            assert (a == b) == (a is b)
        # nor is one equal to the tuple of its fields
        assert a != tuple(getattr(a, name) for name in FIELDS[type(a)]
                          if name != 'vector')


@pytest.mark.parametrize('value,same,other,text', VALUES, ids=IDS)
def test_values_are_immutable(value, same, other, text):
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same and repr(value) == text


@pytest.mark.parametrize('value,same,other,text', VALUES, ids=IDS)
def test_values_print_their_fields(value, same, other, text):
    assert repr(value) == text


@pytest.mark.parametrize('value,same,other,text', VALUES, ids=IDS)
def test_values_pickle_and_copy(value, same, other, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_a_copied_path_keeps_its_vector():
    path = DyckPath('uuddud')
    for twin in (pickle.loads(pickle.dumps(path)), copy.deepcopy(path)):
        assert twin.vector == path.vector == (1, 0, 0)


def test_importing_the_cli_loads_no_class_machinery():
    # the value types are plain classes, so importing the package neither
    # generates methods nor loads dataclasses and the inspect module that
    # it imports; site may have loaded modules of its own before
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import tamari_atlas.cli\n"
              "print(sorted({'dataclasses', 'inspect'}\n"
              "             & (set(sys.modules) - before)))\n")
    done = fresh_python(['-c', script])
    assert done.stdout == "[]\n", done.stdout + done.stderr


def test_unpickling_checks_the_value_again():
    # a pickle holds the constructor's arguments, not the built fields
    data = pickle.dumps(DyckPath('ud'))
    assert data.count(b'ud') == 1
    with pytest.raises(ValueError, match='falls below'):
        pickle.loads(data.replace(b'ud', b'du'))
