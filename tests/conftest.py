"""Shared fixtures: the fixture corpus, a bitmask truth-table oracle for
propositional logic, and seeded random generators for property tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from dolkit.dolparse import RepoConfig, parse_document
from dolkit.kernel import Role, Sentence
from dolkit.logics import prop
from dolkit.structure import Env

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def repo() -> RepoConfig:
    return RepoConfig.from_file(FIXTURES / "repo.json")


@pytest.fixture(scope="session")
def family_doc():
    return parse_document((FIXTURES / "family.dol").read_text())


@pytest.fixture()
def family_env(family_doc, repo) -> Env:
    return Env(family_doc, repo)


@pytest.fixture(scope="session")
def alignments_doc():
    return parse_document((FIXTURES / "alignments.dol").read_text())


@pytest.fixture()
def alignments_env(alignments_doc, repo) -> Env:
    return Env(alignments_doc, repo)


# -- truth-table oracle ---------------------------------------------------------
#
# Each variable owns a column bitmask over 2^n assignment rows; formulas
# evaluate to row bitmasks with plain integer bitwise operations. Independent
# of the CDCL prover by construction.


def tt_variables(asts) -> list[tuple[str, str]]:
    seen: list[tuple[str, str]] = []

    def walk(ast) -> None:
        if isinstance(ast, prop.PVar):
            key = (ast.origin, ast.name)
            if key not in seen:
                seen.append(key)
        elif isinstance(ast, prop.PNot):
            walk(ast.body)
        elif isinstance(ast, prop.PBin):
            walk(ast.left)
            walk(ast.right)

    for ast in asts:
        walk(ast)
    return sorted(seen)


def tt_mask(ast, columns: dict[tuple[str, str], int], full: int) -> int:
    if isinstance(ast, prop.PTrue):
        return full
    if isinstance(ast, prop.PFalse):
        return 0
    if isinstance(ast, prop.PVar):
        return columns[(ast.origin, ast.name)]
    if isinstance(ast, prop.PNot):
        return full & ~tt_mask(ast.body, columns, full)
    left = tt_mask(ast.left, columns, full)
    right = tt_mask(ast.right, columns, full)
    if ast.op == "and":
        return left & right
    if ast.op == "or":
        return left | right
    if ast.op == "impl":
        return (full & ~left) | right
    return full & ~(left ^ right)  # iff


def tt_entails(axiom_asts, conjecture_ast) -> bool:
    """Gamma |= phi by exhaustive evaluation over all assignments."""
    variables = tt_variables(list(axiom_asts) + [conjecture_ast])
    n = len(variables)
    rows = 1 << n
    full = (1 << rows) - 1
    columns: dict[tuple[str, str], int] = {}
    for i, key in enumerate(variables):
        col = 0
        for row in range(rows):
            if row & (1 << i):
                col |= 1 << row
        columns[key] = col
    models = full
    for ast in axiom_asts:
        models &= tt_mask(ast, columns, full)
    return models & ~tt_mask(conjecture_ast, columns, full) == 0


# -- random generators -----------------------------------------------------------


def gen_prop_ast(rng: random.Random, variables: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return prop.PTrue()
        if roll < 0.1:
            return prop.PFalse()
        return prop.PVar("", rng.choice(variables))
    op = rng.choice(["and", "or", "impl", "iff", "not"])
    if op == "not":
        return prop.PNot(gen_prop_ast(rng, variables, depth - 1))
    return prop.PBin(
        op,
        gen_prop_ast(rng, variables, depth - 1),
        gen_prop_ast(rng, variables, depth - 1),
    )


def gen_prop_theory(
    rng: random.Random, max_vars: int = 12, max_axioms: int = 15, depth: int = 3
) -> tuple[list[Sentence], Sentence]:
    n_vars = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(n_vars)]
    n_axioms = rng.randint(0, max_axioms)
    axioms = [
        Sentence("Prop", gen_prop_ast(rng, variables, depth), f"ax{i + 1}", Role.AXIOM)
        for i in range(n_axioms)
    ]
    conjecture = Sentence(
        "Prop", gen_prop_ast(rng, variables, depth), "goal", Role.CONJECTURE
    )
    return axioms, conjecture
