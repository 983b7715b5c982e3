r"""
Dyck paths, bracket vectors, the Tamari order and new intervals.

A Dyck path is stored as a word over {u, d} with all prefixes having at
least as many u's as d's. The Tamari order is tested through bracket
vectors: entry i is the size of the factor matched by the i-th up step.
New intervals are Tamari intervals [P, Q] such that the first up step of
Q matches the final down step, and V_P(i) <= V_Q(i+1) whenever V_Q(i) > 0.

Up steps are indexed from 1. A path's check is one stack pass over its
steps, which also yields its bracket vector, kept on the path; the
rising contacts of every factor come from one more such pass, so both
take linear time.

One search, ``words_under``, yields the Dyck words whose bracket vector
lies under a bound: all words of size n under the slack bound
(n-1, ..., 0), and the lower paths of a new interval under one read off
its upper path.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence


class _Value:
    """Base of the checked value types, and the one place where their
    equality is written: two values are equal when they are of the same
    class and the fields named in its ``_fields`` are equal, and a value
    hashes as those fields do. A subclass's ``__init__`` sets its fields
    with ``object.__setattr__`` and runs its check; after that no
    attribute can be assigned or deleted. A value prints like a
    dataclass, and pickles and copies through its constructor, whose
    arguments ``_fields`` names, so every copy is checked again."""

    __slots__ = ()

    def __init_subclass__(cls):
        # one getter per class: the field's value, or the tuple of several
        cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ', '.join(f'{name}={getattr(self, name)!r}'
                           for name in self._fields)
        return f'{type(self).__qualname__}({fields})'

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class DyckPath(_Value):
    """A Dyck path as a word over {u, d}. The empty path is allowed.

    Its check is one stack pass, which also yields the bracket vector
    that it keeps as ``vector``: a down step closes the innermost open
    up step i, whose factor holds the up steps read after it. Paths
    compare by their steps alone."""

    __slots__ = ('steps', 'vector')
    _fields = ('steps',)

    def __init__(self, steps: str):
        object.__setattr__(self, 'steps', steps)
        out = [0] * len(steps)      # room for the up steps of any word
        open_ups: list[int] = []    # 0-based indices of the open up steps
        k = 0                       # up steps read
        for ch in steps:
            if ch == 'u':
                open_ups.append(k)
                k += 1
            elif ch != 'd':
                raise ValueError(f"invalid step {ch!r}, expected 'u' or 'd'")
            elif not open_ups:
                raise ValueError("path falls below the x-axis")
            else:
                i = open_ups.pop()
                out[i] = k - i - 1
        if open_ups:
            raise ValueError("path does not end on the x-axis")
        object.__setattr__(self, 'vector', tuple(out[:k]))

    @property
    def size(self) -> int:
        return len(self.steps) // 2

    def __str__(self) -> str:
        return self.steps


def bracket_vector(path: DyckPath) -> tuple[int, ...]:
    """V_P(i) = size of the factor matched by up step i, for i = 1..n,
    as the path's check computed it."""
    return path.vector


def factor_rising_contacts(path: DyckPath) -> tuple[int, ...]:
    """Rising contacts of the factor matched by each up step, for i = 1..n.

    An up step starts at height 0 inside the factor of up step i exactly
    when i is the innermost open up step at that moment, so one stack pass
    counts them all.
    """
    out: list[int] = []
    open_ups: list[int] = []    # indices of the open up steps
    for ch in path.steps:
        if ch == 'u':
            if open_ups:
                out[open_ups[-1]] += 1
            open_ups.append(len(out))
            out.append(0)
        else:
            open_ups.pop()
    return tuple(out)


def tamari_leq(lower: DyckPath, upper: DyckPath) -> bool:
    """Tamari comparison: bracket vectors compare pointwise."""
    if lower.size != upper.size:
        raise ValueError("Tamari comparison needs paths of equal size")
    return all(a <= b for a, b in
               zip(bracket_vector(lower), bracket_vector(upper)))


def type_word(path: DyckPath) -> str:
    """Binary word: letter i is 1 iff up step i is followed by an up step,
    that is iff V(i) > 0, as a non-empty factor starts with an up step."""
    if path.size == 0:
        raise ValueError("type word undefined for the empty path")
    return ''.join(['1' if v else '0' for v in path.vector])


def rising_contacts(path: DyckPath) -> int:
    """Number of up steps starting at height 0."""
    count, h = 0, 0
    for ch in path.steps:
        if ch == 'u':
            if h == 0:
                count += 1
            h += 1
        else:
            h -= 1
    return count


def is_new_interval(lower: DyckPath, upper: DyckPath) -> bool:
    """Whether [lower, upper] is a new Tamari interval.

    Requires: Tamari comparability, the first up step of the upper path
    matching the final down step, and V_P(i) <= V_Q(i+1) whenever
    V_Q(i) > 0.
    """
    n = lower.size
    if n != upper.size:
        raise ValueError("interval components must have equal size")
    if n == 0:
        raise ValueError("intervals are defined for size >= 1")
    vp, vq = lower.vector, upper.vector
    return vq[0] == n - 1 and all(a <= b and (b == 0 or a <= c)
                                  for a, b, c in zip(vp, vq, vq[1:] + (0,)))


class NewInterval(_Value):
    """A valid new interval [lower, upper]."""

    __slots__ = _fields = ('lower', 'upper')

    def __init__(self, lower: DyckPath, upper: DyckPath):
        object.__setattr__(self, 'lower', lower)
        object.__setattr__(self, 'upper', upper)
        if not is_new_interval(lower, upper):
            raise ValueError("the two paths do not form a new interval")

    @property
    def size(self) -> int:
        return self.lower.size

    def __str__(self) -> str:
        return f"{self.lower};{self.upper}"

    @staticmethod
    def parse(text: str) -> "NewInterval":
        parts = text.strip().split(';')
        if len(parts) != 2:
            raise ValueError("expected '<lower>;<upper>'")
        return NewInterval(DyckPath(parts[0]), DyckPath(parts[1]))


class IntervalStats(NamedTuple):
    """Type-pair counts and rising contacts of a new interval."""

    c00: int
    c01: int
    c11: int
    rcont: int


def interval_stats(interval: NewInterval) -> IntervalStats:
    """Count the type pairs (0,0), (0,1), (1,1) and rising contacts.

    The pair (1,0) cannot occur in a valid interval; finding one means the
    input was corrupted, and is reported as an error.
    """
    pairs = list(zip(type_word(interval.lower), type_word(interval.upper)))
    if ('1', '0') in pairs:
        raise ValueError(f"type pair (1,0) at index "
                         f"{pairs.index(('1', '0')) + 1}: "
                         "not a valid new interval")
    return IntervalStats(pairs.count(('0', '0')), pairs.count(('0', '1')),
                         pairs.count(('1', '1')),
                         rising_contacts(interval.lower))


def words_under(bound: Sequence[int]) -> Iterator[str]:
    """Dyck words of size len(bound) whose bracket vector is at most
    ``bound`` pointwise, in lexicographic order ('d' < 'u').

    A depth-first search over prefixes: up step j may open only while
    j <= i + bound[i] for every open up step i. The 'd' extension is
    pushed last, so that it is expanded first."""
    n = len(bound)
    # (prefix, up steps so far, open ups as (least i + bound[i], outer))
    stack: list[tuple[str, int, tuple | None]] = [('', 0, None)]
    while stack:
        prefix, j, opened = stack.pop()
        if opened is None and j == n:
            yield prefix
            continue
        if j < n and (opened is None or j <= opened[0]):
            limit = j + bound[j]
            stack.append((prefix + 'u', j + 1, (
                limit if opened is None else min(limit, opened[0]), opened)))
        if opened is not None:
            stack.append((prefix + 'd', j, opened[1]))


def iter_dyck_words(n: int) -> Iterator[str]:
    """All Dyck words of size n in lexicographic order ('d' < 'u'): the
    words under the slack bound (n-1, ..., 0). None for n < 0."""
    if n >= 0:
        yield from words_under(range(n - 1, -1, -1))
