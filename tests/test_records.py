"""The package's frozen records against ``dataclasses`` twins.

Each record is a plain slotted class whose constructor is its
signature, its validation and one call to ``Record.__init__``, which
stores the values into ``__slots__`` in order; the base derives ``==``,
hash and repr from ``__slots__``. Its twin below is the
``@dataclass(frozen=True)`` it replaces, with the same fields, defaults
and validation; the two must agree on construction, comparison, hash
and repr.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import dataclass, fields
from itertools import product
from typing import Optional

import pytest

import kernelogic
from kernelogic import clauses, graphs, io_text, kernels, oracle, resolution, semantics
from kernelogic.clauses import Literal
from kernelogic.graphs import _check_atom
from kernelogic.records import Record


@dataclass(frozen=True)
class Clause:
    literals: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.literals, frozenset):
            object.__setattr__(self, "literals", frozenset(self.literals))
        for lit in self.literals:
            _check_atom(lit.atom)

    sorted_literals = clauses.Clause.sorted_literals
    __str__ = clauses.Clause.__str__
    __repr__ = clauses.Clause.__repr__


@dataclass(frozen=True)
class ClausalTheory:
    clauses: frozenset
    universe: tuple = ()

    def __post_init__(self):
        clause_set = self.clauses
        if not isinstance(clause_set, frozenset):
            clause_set = frozenset(clause_set)
            object.__setattr__(self, "clauses", clause_set)
        occurring = {atom for cl in clause_set for atom in cl.atoms()}
        if self.universe:
            names = tuple(sorted(set(self.universe)))
            missing = occurring - set(names)
            if missing:
                raise clauses.ValidationError(
                    f"universe is missing occurring atoms: {sorted(missing)}"
                )
        else:
            names = tuple(sorted(occurring))
        for name in names:
            _check_atom(name)
        object.__setattr__(self, "universe", names)

    __iter__ = clauses.ClausalTheory.__iter__
    __repr__ = clauses.ClausalTheory.__repr__


@dataclass(frozen=True)
class Neighborhood:
    out: frozenset
    in_: frozenset
    in_closed: frozenset


@dataclass(frozen=True)
class InputDocument:
    kind: str
    payload: object


@dataclass(frozen=True)
class Partition3:
    true_set: frozenset
    false_set: frozenset
    paradox_set: frozenset


@dataclass(frozen=True)
class SubsetReport:
    independent: bool
    kernel: bool
    semikernel: bool
    inverse_closed: bool
    psk: bool


@dataclass(frozen=True)
class EntailmentVerdict:
    holds: bool
    kind: str
    witness: Optional[object] = None
    countermodel: Optional[object] = None


@dataclass(frozen=True)
class SubdiscourseReport:
    paradox_atoms: frozenset
    healthy_atoms: frozenset
    theory: object
    border: frozenset


@dataclass(frozen=True)
class ProofStep:
    index: int
    clause: object
    rule: str
    premises: Optional[tuple] = None
    atom: Optional[str] = None


@dataclass(frozen=True)
class Proof:
    conclusion: object
    steps: tuple


@dataclass(frozen=True)
class RandomGraphSpec:
    n: int
    edge_prob: float
    seed: int


A, BC, EMPTY = frozenset({"a"}), frozenset({"b", "c"}), frozenset()
LITS = frozenset({Literal("a"), Literal("b", True)})
C1 = clauses.Clause(LITS)
C2 = clauses.Clause([Literal("c")])
THEORY = clauses.ClausalTheory([C1, C2], ("d", "c", "b", "a"))
GRAPH = graphs.Digraph("ab", [("a", "b")])
STEP1 = resolution.ProofStep(1, C1, "input")
STEP2 = resolution.ProofStep(2, C2, "res", (1, 1), "b")

# Per record: its twin and samples of positional arguments, the ones
# that leave out defaulted fields among them.
CASES = {
    clauses.Clause: (
        Clause,
        [(LITS,), ([Literal("a"), Literal("b", True)],), ([Literal("c")],), ()],
    ),
    clauses.ClausalTheory: (
        ClausalTheory,
        [([C1, C2],), (frozenset({C1, C2}), ("d", "c", "b", "a")), ([C2], ["c", "c"]), ([],)],
    ),
    graphs.Neighborhood: (Neighborhood, [(A, BC, A | BC), (BC, A, EMPTY)]),
    io_text.InputDocument: (
        InputDocument,
        [
            (io_text.EDGE_LIST, GRAPH),
            (io_text.CLAUSE_SET, THEORY),
            (io_text.GNF_THEORY, graphs.graph_to_theory(GRAPH)),
        ],
    ),
    kernels.Partition3: (Partition3, [(A, BC, EMPTY), (BC, A, EMPTY), (EMPTY, EMPTY, A)]),
    kernels.SubsetReport: (
        SubsetReport, [(True, True, True, True, True), (True, False, True, False, True)]
    ),
    semantics.EntailmentVerdict: (
        EntailmentVerdict,
        [
            (True, "all-paradox"),
            (True, "healthy-witness", C1),
            (False, "countermodel", None, kernels.Partition3(A, BC, EMPTY)),
        ],
    ),
    semantics.SubdiscourseReport: (
        SubdiscourseReport, [(A, BC, THEORY, EMPTY), (BC, A, THEORY, A)]
    ),
    resolution.ProofStep: (
        ProofStep, [(1, C1, "input"), (2, C2, "res", (1, 1), "b"), (3, C2, "axiom")]
    ),
    resolution.Proof: (Proof, [(C2, (STEP1, STEP2)), (C1, (STEP1,))]),
    oracle.RandomGraphSpec: (RandomGraphSpec, [(5, 0.3, 7), (5, 0.3, 8), (0, 0.0, 0)]),
}

RECORDS = pytest.mark.parametrize("record", list(CASES), ids=lambda cls: cls.__name__)


def test_every_record_has_a_twin():
    for module in pkgutil.iter_modules(kernelogic.__path__):
        importlib.import_module(f"kernelogic.{module.name}")
    assert set(Record.__subclasses__()) == set(CASES)


@RECORDS
def test_records_take_eq_and_hash_from_the_base(record):
    assert "__eq__" not in vars(record) and "__hash__" not in vars(record)


def outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)


def keywords(record, args):
    return dict(zip(record.__slots__, args))


@RECORDS
def test_record_has_its_twins_fields_and_constructor(record):
    twin, _ = CASES[record]
    assert record.__slots__ == tuple(f.name for f in fields(twin))
    assert record.__match_args__ == twin.__match_args__

    def parameters(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert parameters(record) == parameters(twin)


@RECORDS
def test_record_compares_hashes_and_prints_as_its_twin(record):
    twin, samples = CASES[record]
    real = [record(*args) for args in samples]
    twins = [twin(*args) for args in samples]
    for args, r, t in zip(samples, real, twins):
        assert repr(r) == repr(t)
        assert outcome(hash, r) == outcome(hash, t)
        by_keyword = keywords(record, args)
        assert record(**by_keyword) == r
        assert repr(record(**by_keyword)) == repr(twin(**by_keyword))
        as_tuple = tuple(getattr(r, name) for name in record.__slots__)
        assert (r == as_tuple, r != as_tuple) == (t == as_tuple, t != as_tuple) == (False, True)
        assert (r == t, r != t) == (False, True)
        assert r == record(*args) and not r != record(*args)
    for (i, r), (j, s) in product(enumerate(real), repeat=2):
        assert (r == s, r != s) == (twins[i] == twins[j], twins[i] != twins[j])


@pytest.mark.parametrize(
    "record, twin, args",
    [
        (clauses.Clause, Clause, ([Literal("a b")],)),
        (clauses.ClausalTheory, ClausalTheory, ([C1], ("a",))),
        (clauses.ClausalTheory, ClausalTheory, ([], ("a", "not an atom"))),
    ],
)
def test_records_validate_as_their_twins(record, twin, args):
    raised = outcome(record, *args)
    assert raised[0] == "raises"
    assert raised == outcome(twin, *args)


@RECORDS
def test_records_are_frozen_unordered_and_copy_by_value(record):
    _, samples = CASES[record]
    first, second = record(*samples[0]), record(*samples[1])
    name = record.__slots__[0]
    value = getattr(first, name)
    for attempt in (
        lambda: setattr(first, name, value),
        lambda: setattr(first, "extra", 1),
        lambda: delattr(first, name),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(first, name) is value
    with pytest.raises(TypeError):
        sorted([first, second])
    for copied in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert copied == first and type(copied) is record
