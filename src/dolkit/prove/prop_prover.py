"""Complete propositional decision procedure: Tseitin encoding plus DPLL
with unit propagation. Validity of axioms -> conjecture is decided through
satisfiability of axioms AND NOT conjecture."""

from __future__ import annotations

import time
from typing import Sequence

from ..kernel import Sentence
from ..logics import prop
from .status import ProofAttempt, ProofStatus

PROVER_ID = "internal-prop"


class _Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def exceeded(self) -> bool:
        return time.monotonic() > self.deadline


class _Cnf:
    """Tseitin-style encoding; variable 1 is reserved as TRUE."""

    def __init__(self) -> None:
        self.next_var = 2
        self.clauses: list[list[int]] = [[1]]
        self.atom_vars: dict[tuple[str, str], int] = {}
        self.node_lits: dict[object, int] = {}

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def atom(self, node: prop.PVar) -> int:
        key = (node.origin, node.name)
        v = self.atom_vars.get(key)
        if v is None:
            v = self.fresh()
            self.atom_vars[key] = v
        return v

    def literal(self, node) -> int:
        cached = self.node_lits.get(node)
        if cached is not None:
            return cached
        if isinstance(node, prop.PTrue):
            lit = 1
        elif isinstance(node, prop.PFalse):
            lit = -1
        elif isinstance(node, prop.PVar):
            lit = self.atom(node)
        elif isinstance(node, prop.PNot):
            lit = -self.literal(node.body)
        else:
            a = self.literal(node.left)
            b = self.literal(node.right)
            lit = self.fresh()
            if node.op == "and":
                self.clauses += [[-lit, a], [-lit, b], [lit, -a, -b]]
            elif node.op == "or":
                self.clauses += [[-lit, a, b], [lit, -a], [lit, -b]]
            elif node.op == "impl":
                self.clauses += [[-lit, -a, b], [lit, a], [lit, -b]]
            else:  # iff
                self.clauses += [[-lit, -a, b], [-lit, a, -b], [lit, a, b], [lit, -a, -b]]
        self.node_lits[node] = lit
        return lit


def _unit_propagate(
    clauses: list[list[int]], assignment: dict[int, bool]
) -> tuple[bool, list[list[int]]]:
    """Simplify under the assignment, propagating units to fixpoint.
    Returns (conflict-free, remaining clauses)."""
    changed = True
    while changed:
        changed = False
        remaining: list[list[int]] = []
        for clause in clauses:
            satisfied = False
            pending: list[int] = []
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    pending.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not pending:
                return False, []
            if len(pending) == 1:
                lit = pending[0]
                assignment[abs(lit)] = lit > 0
                changed = True
            else:
                remaining.append(pending)
        clauses = remaining
    return True, clauses


def _dpll(clauses: list[list[int]], assignment: dict[int, bool], budget: _Budget) -> bool | None:
    """True = satisfiable, False = unsatisfiable, None = out of time."""
    if budget.exceeded():
        return None
    ok, clauses = _unit_propagate(clauses, assignment)
    if not ok:
        return False
    if not clauses:
        return True
    branch_var = min(abs(lit) for clause in clauses for lit in clause)
    for value in (True, False):
        trial = dict(assignment)
        trial[branch_var] = value
        result = _dpll(clauses, trial, budget)
        if result is None or result:
            return result
    return False


def prove_prop(
    axioms: Sequence[Sentence], conjecture: Sentence, timeout_seconds: float
) -> ProofAttempt:
    start = time.monotonic()
    budget = _Budget(timeout_seconds)
    labels = tuple(s.label for s in axioms if s.label is not None)
    if budget.exceeded():
        return ProofAttempt(
            "", PROVER_ID, ProofStatus.TMO, time.monotonic() - start,
            output="timeout before search", timeout_seconds=timeout_seconds,
        )
    cnf = _Cnf()
    for axiom in axioms:
        cnf.clauses.append([cnf.literal(axiom.ast)])
    cnf.clauses.append([-cnf.literal(conjecture.ast)])
    result = _dpll(cnf.clauses, {}, budget)
    wall = time.monotonic() - start
    if result is None:
        return ProofAttempt(
            "", PROVER_ID, ProofStatus.TMO, wall,
            output="timeout during search", timeout_seconds=timeout_seconds,
        )
    if result:
        return ProofAttempt(
            "", PROVER_ID, ProofStatus.CSA, wall,
            output="axioms plus negated conjecture are satisfiable",
            timeout_seconds=timeout_seconds,
        )
    return ProofAttempt(
        "", PROVER_ID, ProofStatus.THM, wall,
        output="axioms plus negated conjecture are unsatisfiable",
        used_axioms=labels,
        timeout_seconds=timeout_seconds,
    )
