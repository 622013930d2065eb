"""Complete propositional decision procedure: Tseitin encoding plus an
iterative CDCL search (conflict-driven clause learning with two watched
literals, 1-UIP learning, non-chronological backjumping and activity-ordered
decisions, as in MiniSat: Eén & Sörensson, "An Extensible SAT-solver", SAT
2003). Validity of axioms -> conjecture is decided through satisfiability of
axioms AND NOT conjecture."""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Sequence

from ..kernel import Sentence, Walk, run
from ..logics import prop
from .status import ProofStatus, Verdict


class _Cnf:
    """Tseitin-style encoding; variable 1 is reserved as TRUE. Equal subformulas
    share the gate variable of their (op, operand literal, operand literal)."""

    CONSTANTS = {prop.PTrue: 1, prop.PFalse: -1}

    def __init__(self) -> None:
        self.next_var = 2
        self.clauses: list[list[int]] = [[1]]
        self.atom_vars: dict[tuple[str, str], int] = {}
        self.gates: dict[tuple[str, int, int], int] = {}

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def atom(self, node: prop.PVar) -> int:
        key = (node.origin, node.name)
        v = self.atom_vars.get(key)
        if v is None:
            v = self.atom_vars[key] = self.fresh()
        return v

    def assert_clause(self, node) -> None:
        """Assert `node` as one clause, one literal per disjunct of its
        top-level `or` chain, so that a disjunct that is a literal needs no
        gate variable."""
        clause: list[int] = []
        stack = [node]
        while stack:
            node = stack.pop()
            if isinstance(node, prop.PBin) and node.op == "or":
                stack += (node.right, node.left)
            else:
                clause.append(self.literal(node))
        self.clauses.append(clause)

    def literal(self, node) -> int:
        return self.leaf(node) or run(self.gate(node))

    def leaf(self, node) -> int:
        """The literal of a constant, an atom or a negated one; else 0."""
        sign = 1
        if type(node) is prop.PNot:
            node, sign = node.body, -1
        if type(node) is prop.PVar:
            return sign * self.atom(node)
        return sign * self.CONSTANTS.get(type(node), 0)

    def gate(self, node) -> Walk:
        """The literal of a formula that is not a `leaf`."""
        if isinstance(node, prop.PNot):
            return -(self.leaf(node.body) or (yield self.gate(node.body)))
        a = self.leaf(node.left) or (yield self.gate(node.left))
        b = self.leaf(node.right) or (yield self.gate(node.right))
        lit = self.gates.get((node.op, a, b))
        if lit is None:
            lit = self.gates[node.op, a, b] = self.fresh()
            if node.op == "and":
                self.clauses += [[-lit, a], [-lit, b], [lit, -a, -b]]
            elif node.op == "or":
                self.clauses += [[-lit, a, b], [lit, -a], [lit, -b]]
            elif node.op == "impl":
                self.clauses += [[-lit, -a, b], [lit, a], [lit, -b]]
            else:  # iff
                self.clauses += [[-lit, -a, b], [-lit, a, -b], [lit, a, b], [lit, -a, -b]]
        return lit


_ACTIVITY_DECAY = 0.95
_ACTIVITY_LIMIT = 1e100


class _Cdcl:
    """CDCL search over variables 1..n_vars. A literal is a nonzero int.
    Tables per literal (`value`, `watches`) have 2 * n_vars + 1 entries and
    are indexed by the literal itself, so -v lands past every positive v.
    `watches[lit]` holds the clauses that watch `lit`; a clause watches its
    first two literals, and a reason clause has its implied literal first."""

    def __init__(self, n_vars: int, deadline: float) -> None:
        self.deadline = deadline
        self.value: list[bool | None] = [None] * (2 * n_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 1)]
        self.level = [0] * (n_vars + 1)
        self.reason: list[list[int] | None] = [None] * (n_vars + 1)
        self.activity = [0.0] * (n_vars + 1)
        self.phase = [False] * (n_vars + 1)  # saved polarity, tried first
        self.seen = [False] * (n_vars + 1)
        self.bump_size = 1.0
        # (-activity, var): the most active variable first, ties to the lowest
        # number. Entries go stale when a variable is bumped or assigned and are
        # skipped on pop; every unassigned variable has a current entry.
        self.order = [(-0.0, v) for v in range(1, n_vars + 1)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail length at each decision
        self.qhead = 0

    def enqueue(self, lit: int, reason: list[int] | None) -> None:
        self.value[lit] = True
        self.value[-lit] = False
        v = abs(lit)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def watch(self, clause: list[int]) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def propagate(self) -> list[int] | None:
        """Unit propagation over the watches; returns a conflicting clause."""
        value, watches, trail = self.value, self.watches, self.trail
        level, reason, depth = self.level, self.reason, len(self.trail_lim)
        while self.qhead < len(trail):
            false_lit = -trail[self.qhead]
            self.qhead += 1
            watching = watches[false_lit]
            watches[false_lit] = kept = []
            for i, clause in enumerate(watching):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                if value[first] is True:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] is not False:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[first] is False:
                        kept.extend(watching[i + 1:])
                        self.qhead = len(trail)
                        return clause
                    # self.enqueue(first, clause), inlined in the hot loop
                    value[first] = True
                    value[-first] = False
                    level[abs(first)] = depth
                    reason[abs(first)] = clause
                    trail.append(first)
        return None

    def bump(self, v: int) -> None:
        self.activity[v] += self.bump_size
        if self.activity[v] > _ACTIVITY_LIMIT:
            self.activity = [a / _ACTIVITY_LIMIT for a in self.activity]
            self.bump_size /= _ACTIVITY_LIMIT
            self.rebuild_order()

    def rebuild_order(self) -> None:
        value, activity = self.value, self.activity
        self.order = [(-activity[v], v) for v in range(1, len(activity)) if value[v] is None]
        heapify(self.order)

    def analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """The first-UIP clause learnt from a conflict at the current level,
        with its asserting literal first and a literal of the backjump level
        second, and that level."""
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        depth = len(self.trail_lim)
        learnt = [0]
        pending = 0  # seen literals of the current level not yet resolved away
        index = len(trail) - 1
        clause, start = conflict, 0
        while True:
            for k in range(start, len(clause)):
                lit = clause[k]
                v = abs(lit)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self.bump(v)
                    if level[v] == depth:
                        pending += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(trail[index])]:
                index -= 1
            uip = trail[index]
            index -= 1
            seen[abs(uip)] = False
            pending -= 1
            if pending == 0:
                break
            clause, start = reason[abs(uip)], 1
        learnt[0] = -uip
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        if len(learnt) == 1:
            return learnt, 0
        second = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
        learnt[1], learnt[second] = learnt[second], learnt[1]
        return learnt, level[abs(learnt[1])]

    def backjump(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        value, reason, phase, activity, order = (
            self.value, self.reason, self.phase, self.activity, self.order
        )
        start = self.trail_lim[target]
        for lit in self.trail[start:]:
            v = abs(lit)
            value[lit] = value[-lit] = None
            reason[v] = None
            phase[v] = lit > 0
            heappush(order, (-activity[v], v))
        del self.trail[start:]
        del self.trail_lim[target:]
        self.qhead = start
        if len(order) > 4 * len(activity):
            self.rebuild_order()

    def decide(self) -> int:
        """The unassigned variable of highest activity, or 0 if none is left."""
        order, value, activity = self.order, self.value, self.activity
        while order:
            negated, v = heappop(order)
            if value[v] is None and -negated == activity[v]:
                return v
        return 0

    def solve(self, clauses: list[list[int]]) -> bool | None:
        """True = satisfiable, False = unsatisfiable, None = out of time."""
        units = []
        for clause in clauses:
            distinct = dict.fromkeys(clause)
            if any(-lit in distinct for lit in distinct):
                continue
            lits = list(distinct)
            if len(lits) == 1:
                units.append(lits[0])
            else:
                self.watch(lits)
        for lit in units:
            if self.value[lit] is False:
                return False
            if self.value[lit] is None:
                self.enqueue(lit, None)
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return False
                if time.monotonic() > self.deadline:
                    return None
                learnt, target = self.analyze(conflict)
                self.backjump(target)
                if len(learnt) > 1:
                    self.watch(learnt)
                    self.enqueue(learnt[0], learnt)
                else:
                    self.enqueue(learnt[0], None)
                self.bump_size /= _ACTIVITY_DECAY
            else:
                if time.monotonic() > self.deadline:
                    return None
                v = self.decide()
                if not v:
                    return True
                self.trail_lim.append(len(self.trail))
                self.enqueue(v if self.phase[v] else -v, None)


def prove_prop(
    axioms: Sequence[Sentence], conjecture: Sentence, timeout_seconds: float
) -> Verdict:
    deadline = time.monotonic() + timeout_seconds
    if time.monotonic() > deadline:
        return Verdict(ProofStatus.TMO, "timeout before search")
    cnf = _Cnf()
    for axiom in axioms:
        cnf.assert_clause(axiom.ast)
    cnf.clauses.append([-cnf.literal(conjecture.ast)])
    result = _Cdcl(cnf.next_var - 1, deadline).solve(cnf.clauses)
    if result is None:
        return Verdict(ProofStatus.TMO, "timeout during search")
    if result:
        return Verdict(ProofStatus.CSA, "axioms plus negated conjecture are satisfiable")
    return Verdict(
        ProofStatus.THM,
        "axioms plus negated conjecture are unsatisfiable",
        tuple(s.label for s in axioms if s.label is not None),
    )
