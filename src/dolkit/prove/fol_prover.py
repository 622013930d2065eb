"""Internal first-order prover: clausification in one pass followed by
saturation with binary resolution and factoring.

Input is function-free first-order logic; Skolem functions are
introduced internally. The given-clause loop alternates a weight-best pick
with an age-based pick for fairness, discards tautologies and forward-
subsumed clauses, and traces refutations back to the originating axiom
labels. Saturation without an empty clause is CounterSatisfiable; running
past the deadline or the clause cap is a timeout, and so is a CNF expansion
that is still running at the deadline.

Three exact indexes stand in for scans over every clause. Each returns what
its scan would, so the search makes the same picks, generates resolvents in
the same order and reaches the same subsumption verdicts:

- forward subsumption: queued and processed clauses under the (sign,
  predicate) key of their first literal, each with a feature bitmask of its
  (sign, predicate) keys and function symbols. `_subsumes` runs only on
  candidates whose features are a subset of the new clause's, which every
  subsumer's are (Schulz, "Simple and Efficient Clause Subsumption with
  Feature Vector Indexing", 2013);
- resolution partners: processed clauses under each (sign, predicate) key
  they hold, visited in processed order;
- clause selection: queued clauses in a heap by (weight, id), with the
  weight cached on the clause, and in a FIFO queue. Clause ids count up in
  the order clauses are made, which is also the order they are queued in,
  so both follow age. Both delete lazily.

Only retained clauses (queued, processed or empty) are registered for
refutation tracing, which suffices because parents are always processed.
Their literals and terms are hash-consed. A generated clause that some
retained clause subsumes, a duplicate included, is dropped at once.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import UnsupportedFeature
from ..kernel import Sentence, Walk, run
from ..logics import fol
from .status import ProofStatus, Verdict

DEFAULT_CLAUSE_CAP = 100_000
_AGE_PICK_EVERY = 5

# terms: ('v', name) or ('f', key, args); predicate keys are (origin, name, arity)
Term = tuple
Literal = tuple  # (sign, pred_key, args)


@dataclass(slots=True)
class Clause:
    id: int
    lits: tuple[Literal, ...]
    parents: tuple[int, ...]
    label: str | None
    # index data, set by _Saturation.push and process
    weight: int = 0
    mask: int = 0  # _Saturation.features(lits)
    queued: bool = False  # waiting to be picked
    rank: int = -1  # position in the processed list, once processed


def _term_weight(t: Term) -> int:
    if t[0] == "v":
        return 1
    return 1 + sum(_term_weight(a) for a in t[2])


# -- clausification ---------------------------------------------------------------


class _Deadline(Exception):
    """Clausification ran past the deadline."""


class _Clausifier:
    """Clauses of FOL formulas in one walk from the AST and a polarity.

    Negation moves inward by polarity, and `impl` and `iff` expand by it. A
    universal becomes a fresh variable `U<n>` and an existential a Skolem
    term `sk<n>` over the enclosing universals. `and` concatenates clause
    lists and `or` takes their product, which can be exponentially large,
    so the product raises _Deadline once the deadline has passed. The truth
    constants fold as clause lists: true is `[]` and false is
    `[frozenset()]`, and no other formula gives either, since every other
    formula has clauses and each of them has literals. A part that folds to
    a constant gives back the variable and Skolem numbers drawn inside it,
    so the numbers run in walk order over the parts that are kept. An
    unsupported construct raises wherever it sits, even in a part that
    folds away."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.vars = 0
        self.skolems = 0

    def walk(self, ast, positive: bool, env: dict[str, Term], universals: tuple[Term, ...]) -> Walk:
        while isinstance(ast, fol.FNot):
            ast, positive = ast.body, not positive
        if isinstance(ast, fol.FAtom):
            args = tuple(_term(a, env) for a in ast.args)
            return [frozenset([(positive, (ast.origin, ast.name, len(args)), args)])]
        if isinstance(ast, (fol.FTrue, fol.FFalse)):
            return [] if isinstance(ast, fol.FTrue) == positive else [frozenset()]
        mark = self.vars, self.skolems
        if isinstance(ast, fol.FQuant):
            if (ast.quant == "forall") == positive:
                self.vars += 1
                term = ("v", f"U{self.vars}")
                universals += (term,)
            else:
                self.skolems += 1
                term = ("f", ("", f"sk{self.skolems}"), universals)
            out = yield self.walk(ast.body, positive, {**env, ast.var: term}, universals)
        elif isinstance(ast, fol.FBin):
            op, left, right, left_positive = ast.op, ast.left, ast.right, positive
            if op == "iff":  # (~l | r) & (l | ~r), each half folding on its own
                op, left, right = (
                    "and",
                    fol.FBin("or", fol.FNot(left), right),
                    fol.FBin("or", left, fol.FNot(right)),
                )
            elif op == "impl":  # ~l | r
                op, left_positive = "or", not positive
            lefts = yield self.walk(left, left_positive, env, universals)
            rights = yield self.walk(right, positive, env, universals)
            if (op == "and") == positive:  # a conjunction in this polarity
                out = [frozenset()] if [frozenset()] in (lefts, rights) else lefts + rights
            else:
                out = []
                for a in lefts:
                    for b in rights:
                        if time.monotonic() > self.deadline:
                            raise _Deadline
                        out.append(a | b)
        else:
            raise UnsupportedFeature(f"cannot clausify {type(ast).__name__}")
        if not out or not out[0]:  # folded to a constant
            self.vars, self.skolems = mark
        return out


def _term(t, env: dict[str, Term]) -> Term:
    if isinstance(t, fol.FVar):
        bound = env.get(t.name)
        if bound is None:
            raise UnsupportedFeature(f"unbound variable {t.name!r} in input formula")
        return bound
    return ("f", (t.origin, t.name), ())


def _canonical(lits: Iterable[Literal]) -> tuple[Literal, ...] | None:
    """Sort literals and rename variables by first occurrence; None for
    tautologies."""
    lit_set = set(lits)
    for sign, pred, args in lit_set:
        if (not sign, pred, args) in lit_set:
            return None
    lits = sorted(lit_set)
    rename: dict[str, str] = {}

    def walk(t: Term) -> Term:
        if t[0] == "v":
            new = rename.setdefault(t[1], f"X{len(rename)}")
            return ("v", new)
        return ("f", t[1], tuple(walk(a) for a in t[2]))

    return tuple(
        sorted((sign, pred, tuple(walk(a) for a in args)) for sign, pred, args in lits)
    )


# -- unification and matching --------------------------------------------------------


def _deref(t: Term, subst: dict[str, Term]) -> Term:
    while t[0] == "v" and t[1] in subst:
        t = subst[t[1]]
    return t


def _occurs(var: str, t: Term, subst: dict[str, Term]) -> bool:
    t = _deref(t, subst)
    if t[0] == "v":
        return t[1] == var
    return any(_occurs(var, a, subst) for a in t[2])


def _unify(a: Term, b: Term, subst: dict[str, Term]) -> bool:
    a, b = _deref(a, subst), _deref(b, subst)
    if a == b:
        return True
    if a[0] == "v":
        if _occurs(a[1], b, subst):
            return False
        subst[a[1]] = b
        return True
    if b[0] == "v":
        return _unify(b, a, subst)
    if a[1] != b[1] or len(a[2]) != len(b[2]):
        return False
    return all(_unify(x, y, subst) for x, y in zip(a[2], b[2]))


def _unify_args(a: tuple[Term, ...], b: tuple[Term, ...], subst: dict[str, Term]) -> bool:
    return len(a) == len(b) and all(_unify(x, y, subst) for x, y in zip(a, b))


def _apply(t: Term, subst: dict[str, Term]) -> Term:
    t = _deref(t, subst)
    if t[0] == "v":
        return t
    return ("f", t[1], tuple(_apply(a, subst) for a in t[2]))


def _apply_lits(lits: Iterable[Literal], subst: dict[str, Term]) -> list[Literal]:
    return [
        (sign, pred, tuple(_apply(a, subst) for a in args)) for sign, pred, args in lits
    ]


def _rename_vars(lits: tuple[Literal, ...], suffix: str) -> list[Literal]:
    def walk(t: Term) -> Term:
        if t[0] == "v":
            return ("v", t[1] + suffix)
        return ("f", t[1], tuple(walk(a) for a in t[2]))

    return [(sign, pred, tuple(walk(a) for a in args)) for sign, pred, args in lits]


# -- subsumption ---------------------------------------------------------------------


def _match(a: Term, b: Term, subst: dict[str, Term]) -> bool:
    """One-way matching: variables of `a` bind, `b` stays fixed."""
    if a[0] == "v":
        bound = subst.get(a[1])
        if bound is None:
            subst[a[1]] = b
            return True
        return bound == b
    if b[0] == "v" or a[1] != b[1] or len(a[2]) != len(b[2]):
        return False
    return all(_match(x, y, subst) for x, y in zip(a[2], b[2]))


def _subsumes(c: Clause, d: Clause) -> bool:
    """C subsumes D when some substitution sends every literal of C to a
    literal of D. Backtracks on an explicit stack, so clauses of any width
    are compared: frame i holds the substitution that sends C's first i
    literals into D, and the literals of D still untried for literal i."""
    n = len(c.lits)
    if n > len(d.lits):
        return False
    if not n:
        return True
    stack = [({}, iter(d.lits))]
    while stack:
        subst, untried = stack[-1]
        sign, pred, args = c.lits[len(stack) - 1]
        for d_sign, d_pred, d_args in untried:
            if d_sign != sign or d_pred != pred:
                continue
            trial = dict(subst)
            if all(_match(x, y, trial) for x, y in zip(args, d_args)):
                if len(stack) == n:
                    return True
                stack.append((trial, iter(d.lits)))
                break
        else:
            stack.pop()
    return False


# -- saturation -------------------------------------------------------------------


class _Saturation:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.clauses: dict[int, Clause] = {}  # retained: queued, processed or empty
        self.next_id = 0
        self.processed: list[Clause] = []
        self.queued = 0
        # queued clauses, with lazy deletion: a heap by (weight, id), and a
        # FIFO by id, since clauses are queued in the order they are made
        self.by_weight: list[tuple[int, int, Clause]] = []
        self.by_age: deque[Clause] = deque()
        self.picks = 0
        # queued and processed clauses by the (sign, pred) of their first literal
        self.by_first: dict[tuple, list[Clause]] = {}
        # processed clauses, in processed order, by each (sign, pred) they hold
        self.by_key: dict[tuple, list[Clause]] = {}
        self.feature_bits: dict[tuple, int] = {}
        self.shared: dict[tuple, tuple] = {}

    def add(self, lits: Iterable[Literal], parents: tuple[int, ...], label: str | None) -> Clause | None:
        canonical = _canonical(lits)
        if canonical is None:
            return None
        clause = Clause(self.next_id, canonical, parents, label)
        self.next_id += 1
        return clause

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline or self.next_id > DEFAULT_CLAUSE_CAP

    def features(self, lits: tuple[Literal, ...]) -> int:
        """Bitmask of the (sign, pred) keys and function symbols in `lits`."""
        bits = self.feature_bits
        mask = 0
        for sign, pred, args in lits:
            mask |= bits.setdefault((sign, pred), 1 << len(bits))
            stack = list(args)
            while stack:
                t = stack.pop()
                if t[0] == "f":
                    mask |= bits.setdefault(t[1], 1 << len(bits))
                    stack.extend(t[2])
        return mask

    def subsumed(self, clause: Clause, processed_only: bool) -> bool:
        """Whether a queued or processed clause (only a processed one, if
        asked) subsumes `clause`. A subsumer's first literal shares a
        (sign, pred) key with `clause`, and its features are a subset."""
        mask, size = clause.mask, len(clause.lits)
        for key in {(sign, pred) for sign, pred, _ in clause.lits}:
            for old in self.by_first.get(key, ()):
                if old.mask & ~mask or len(old.lits) > size:
                    continue
                if old.rank < 0 and (processed_only or not old.queued):
                    continue  # not processed, or subsumed when picked
                if _subsumes(old, clause):
                    return True
        return False

    def push(self, clause: Clause) -> Clause | None:
        """Queue a clause unless trivial or subsumed; returns the empty clause
        when derived."""
        if not clause.lits:
            self.clauses[clause.id] = clause
            return clause
        if self.out_of_time():
            return None  # dropping clauses is safe once the run is a timeout
        clause.mask = self.features(clause.lits)
        if self.subsumed(clause, processed_only=False):
            return None
        clause.lits = tuple(self.share_literal(lit) for lit in clause.lits)
        clause.weight = len(clause.lits) + sum(
            _term_weight(arg) + 1 for _, _, args in clause.lits for arg in args
        )
        clause.queued = True
        self.clauses[clause.id] = clause
        sign, pred, _ = clause.lits[0]
        self.by_first.setdefault((sign, pred), []).append(clause)
        heapq.heappush(self.by_weight, (clause.weight, clause.id, clause))
        self.by_age.append(clause)
        self.queued += 1
        return None

    def share_term(self, t: Term) -> Term:
        if t[0] == "f" and t[2]:
            t = ("f", t[1], tuple(self.share_term(a) for a in t[2]))
        return self.shared.setdefault(t, t)

    def share_literal(self, lit: Literal) -> Literal:
        sign, pred, args = lit
        lit = (sign, pred, tuple(self.share_term(a) for a in args))
        return self.shared.setdefault(lit, lit)

    def pick(self) -> Clause:
        """The queued clause of least (weight, id), or every fifth pick the
        oldest one."""
        self.picks += 1
        by_age = self.picks % _AGE_PICK_EVERY == 0
        while True:
            best = self.by_age.popleft() if by_age else heapq.heappop(self.by_weight)[-1]
            if best.queued:
                break
        best.queued = False
        self.queued -= 1
        return best

    def process(self, clause: Clause) -> None:
        clause.rank = len(self.processed)
        self.processed.append(clause)
        for key in {(sign, pred) for sign, pred, _ in clause.lits}:
            self.by_key.setdefault(key, []).append(clause)

    def partners(self, given: Clause) -> list[Clause]:
        """Processed clauses with a literal complementary in sign and
        predicate to one of `given`, in processed order."""
        found: dict[int, Clause] = {}
        for sign, pred, _ in given.lits:
            for partner in self.by_key.get((not sign, pred), ()):
                found[partner.rank] = partner
        return [found[rank] for rank in sorted(found)]

    def factors(self, clause: Clause) -> list[Clause]:
        out = []
        for i in range(len(clause.lits)):
            for j in range(i + 1, len(clause.lits)):
                s1, p1, a1 = clause.lits[i]
                s2, p2, a2 = clause.lits[j]
                if s1 != s2 or p1 != p2:
                    continue
                subst: dict[str, Term] = {}
                if _unify_args(a1, a2, subst):
                    lits = _apply_lits(
                        [l for k, l in enumerate(clause.lits) if k != j], subst
                    )
                    factored = self.add(lits, (clause.id,), None)
                    if factored is not None:
                        out.append(factored)
        return out

    def resolvents(self, given: Clause, partner: Clause) -> list[Clause]:
        out = []
        partner_lits = _rename_vars(partner.lits, "_r")
        for gi, (g_sign, g_pred, g_args) in enumerate(given.lits):
            for pi, (p_sign, p_pred, p_args) in enumerate(partner_lits):
                if g_sign == p_sign or g_pred != p_pred:
                    continue
                subst: dict[str, Term] = {}
                if not _unify_args(g_args, p_args, subst):
                    continue
                lits = _apply_lits(
                    [l for k, l in enumerate(given.lits) if k != gi]
                    + [l for k, l in enumerate(partner_lits) if k != pi],
                    subst,
                )
                resolvent = self.add(lits, (given.id, partner.id), None)
                if resolvent is not None:
                    out.append(resolvent)
        return out

    def used_labels(self, empty: Clause) -> list[str]:
        labels: list[str] = []
        stack = [empty.id]
        visited: set[int] = set()
        while stack:
            cid = stack.pop()
            if cid in visited:
                continue
            visited.add(cid)
            clause = self.clauses[cid]
            if clause.label is not None and clause.label not in labels:
                labels.append(clause.label)
            stack.extend(clause.parents)
        return sorted(labels)


def _input_clauses(
    sat: _Saturation, axioms: Sequence[Sentence], conjecture: Sentence
) -> list[Clause]:
    """Clauses of the axioms and of the negated conjecture, labelled for
    refutation tracing. Raises _Deadline once the deadline has passed."""
    clausifier = _Clausifier(sat.deadline)
    formulas = [
        (axiom.ast, True, axiom.label or f"axiom_{i}") for i, axiom in enumerate(axioms, 1)
    ]
    formulas.append((conjecture.ast, False, None))
    initial: list[Clause] = []
    for ast, positive, label in formulas:
        for lits in run(clausifier.walk(ast, positive, {}, ())):
            if time.monotonic() > sat.deadline:
                raise _Deadline
            clause = sat.add(lits, (), label)
            if clause is not None:
                initial.append(clause)
    return initial


def prove_fol_internal(
    axioms: Sequence[Sentence], conjecture: Sentence, timeout_seconds: float
) -> Verdict:
    sat = _Saturation(time.monotonic() + timeout_seconds)
    try:
        initial = _input_clauses(sat, axioms, conjecture)
    except _Deadline:
        return Verdict(ProofStatus.TMO, "clausification stopped at the deadline")
    empty: Clause | None = None
    for clause in initial:
        empty = sat.push(clause) or empty
    timed_out = False
    while empty is None:
        if sat.out_of_time():
            timed_out = True
            break
        if not sat.queued:
            break
        given = sat.pick()
        if sat.subsumed(given, processed_only=True):
            continue
        new: list[Clause] = sat.factors(given)
        for partner in sat.partners(given) + [given]:
            new.extend(sat.resolvents(given, partner))
            if sat.out_of_time():
                break
        sat.process(given)
        for clause in new:
            # empty clauses still win inside the grace window; push() stops
            # queueing non-empty ones once the deadline passed
            result = sat.push(clause)
            if result is not None:
                empty = result
                break
    if empty is not None:
        return Verdict(
            ProofStatus.THM,
            f"refutation found after {len(sat.processed)} processed clauses",
            tuple(sat.used_labels(empty)),
        )
    if timed_out:
        reason = "clause cap" if sat.next_id > DEFAULT_CLAUSE_CAP else "deadline"
        return Verdict(ProofStatus.TMO, f"search stopped at the {reason}")
    return Verdict(ProofStatus.CSA, f"saturated with {len(sat.processed)} processed clauses")
