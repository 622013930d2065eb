"""Verdict oracles that live in the benchmark, independent of dolkit.

Each oracle answers "is this competency question entailed?" for one
workload's generated inputs:

- `satisfiable`: a DPLL search over clauses of signed variable numbers,
  used for the random 3-SAT instances (entailment of `x and not x` is
  unsatisfiability of the clauses).
- `FamilyModel`: forward-chaining closure of a chain ABox under the family
  TBox of the test fixtures, with that TBox's axioms written out by hand.
- `Hierarchy`: reachability in the merged class hierarchy that a chain of
  alignments produces (classes merged by `=` rows, edges from `SubClassOf`
  axioms and `<` rows).
"""

from __future__ import annotations


# -- propositional satisfiability ---------------------------------------------------


def _assign(clauses: list[frozenset[int]], lit: int) -> list[frozenset[int]] | None:
    """Clauses simplified by making `lit` true; None when one becomes empty."""
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = c - {-lit}
            if not c:
                return None
        out.append(c)
    return out


def _dpll(clauses: list[frozenset[int]]) -> bool:
    while True:
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        reduced = _assign(clauses, next(iter(unit)))
        if reduced is None:
            return False
        clauses = reduced
    if not clauses:
        return True
    # branch on the most frequent literal among the shortest clauses
    shortest = min(len(c) for c in clauses)
    counts: dict[int, int] = {}
    for c in clauses:
        if len(c) == shortest:
            for lit in c:
                counts[lit] = counts.get(lit, 0) + 1
    lit = max(sorted(counts), key=counts.__getitem__)
    for choice in (lit, -lit):
        reduced = _assign(clauses, choice)
        if reduced is not None and _dpll(reduced):
            return True
    return False


def satisfiable(clauses: list[tuple[int, ...]]) -> bool:
    """Whether the clause set (literals are +v / -v) has a model."""
    return _dpll([frozenset(c) for c in clauses])


# -- the family TBox over a parent_of chain -----------------------------------------


class FamilyModel:
    """Closure of a chain ABox P0 .. P(n-1), Pi male for even i and female
    for odd i, each Pi parent_of P(i+1), under the family TBox:

        Male, Female SubClassOf Person;  Male DisjointWith Female
        Father EquivalentTo Male and (parent_of some Person)
        Mother EquivalentTo Female and (parent_of some Person)
        parent_of SubPropertyOf older_than;  child_of InverseOf parent_of
        older_than Transitive
    """

    # sentences in the fixture TBox, as the combined theory prints them
    TBOX_SENTENCES = 8

    def __init__(self, n: int):
        self.n = n
        types: dict[int, set[str]] = {i: {"Male" if i % 2 == 0 else "Female"} for i in range(n)}
        parent = {(i, i + 1) for i in range(n - 1)}
        for i in range(n):
            types[i].add("Person")
        for i, _ in parent:
            types[i].add("Father" if "Male" in types[i] else "Mother")
        for i in range(n):
            # disjointness: a male individual is entailed to be not Female
            types[i].add("not Female" if "Male" in types[i] else "not Male")
        older = set(parent)
        changed = True
        while changed:
            changed = False
            for a, b in list(older):
                for c, d in list(older):
                    if b == c and (a, d) not in older:
                        older.add((a, d))
                        changed = True
        self.types = types
        self.facts = {
            "parent_of": parent,
            "child_of": {(b, a) for a, b in parent},
            "older_than": older,
        }

    def has_type(self, i: int, cls: str) -> bool:
        return cls in self.types[i]

    def has_fact(self, prop: str, i: int, j: int) -> bool:
        return (i, j) in self.facts[prop]


# -- merged class hierarchies -------------------------------------------------------


class Hierarchy:
    """Classes (ontology k, class i) quotiented by `=` rows, with subclass
    edges; `entails(a, b)` is reachability from a's class to b's class."""

    def __init__(self) -> None:
        self._parent: dict[tuple[int, int], tuple[int, int]] = {}
        self._edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self._succ: dict[tuple[int, int], set[tuple[int, int]]] | None = None

    def find(self, x: tuple[int, int]) -> tuple[int, int]:
        self._parent.setdefault(x, x)
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def merge(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra
        self._succ = None

    def subclass(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        self._edges.append((a, b))
        self._succ = None

    def edges(self) -> set[tuple[tuple[int, int], tuple[int, int]]]:
        """Subclass edges between merged classes."""
        return {(self.find(a), self.find(b)) for a, b in self._edges}

    def ancestors(self, a: tuple[int, int]) -> set[tuple[int, int]]:
        if self._succ is None:
            self._succ = {}
            for x, y in self.edges():
                self._succ.setdefault(x, set()).add(y)
        seen = {self.find(a)}
        todo = [self.find(a)]
        while todo:
            for y in self._succ.get(todo.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def entails(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return self.find(b) in self.ancestors(a)
