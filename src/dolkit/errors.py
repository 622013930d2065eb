"""Exception hierarchy shared by all dolkit modules."""

from __future__ import annotations


class DolkitError(Exception):
    """Base class for every error raised by dolkit."""


class NestingTooDeep(DolkitError):
    """Input nests deeper than the recursive parsers, translations and
    provers can follow."""

    def __init__(self) -> None:
        super().__init__("input nests deeper than the recursion limit")


class ParseError(DolkitError):
    """Syntax error in any of the text formats, with source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)


class UnknownConstruct(ParseError):
    """Recognized but unsupported syntax (e.g. Manchester features outside the subset)."""


# -- kernel ------------------------------------------------------------------

class MismatchedEndpoints(DolkitError):
    """Morphism composition where first.target != second.source."""


class SymbolNotInSource(DolkitError):
    """Sentence translation hit a symbol without an image."""


class KindClash(DolkitError):
    """Same symbol name carries conflicting kinds or arities."""

    def __init__(self, name: str, left: object, right: object):
        self.name = name
        self.left = left
        self.right = right
        super().__init__(f"symbol {name!r} declared as {left} and as {right}")


class InvalidTheory(DolkitError):
    """A Theory value violates its invariants."""


# -- mappings ----------------------------------------------------------------

class LogicMismatch(DolkitError):
    """Theory handed to a mapping whose source logic differs."""


class NoPath(DolkitError):
    """No translation path between the requested logics."""


class NoCommonTarget(DolkitError):
    """No logic reachable from both operands via translations."""


# -- dolparse ----------------------------------------------------------------

class DuplicateName(DolkitError):
    """Two document items share a name."""


class UndeclaredPrefix(DolkitError):
    """A prefixed name uses a prefix the document never declares."""


class UnknownLogic(DolkitError):
    """`logic` declaration names no registered logic or language."""


class UnresolvedIri(DolkitError):
    """No repository prefix matches the referenced IRI."""


class AmbiguousPrefix(DolkitError):
    """Two distinct repository prefixes of equal length match one IRI."""


class RepoIoError(DolkitError):
    """Referenced file exists in the mapping but cannot be read."""


# -- structure ---------------------------------------------------------------

class UnresolvedCorrespondence(DolkitError):
    """Correspondence name matches no symbol (or several) on its side."""

    def __init__(self, symbol: str, side: str, detail: str = ""):
        self.symbol = symbol
        self.side = side
        msg = f"correspondence name {symbol!r} does not resolve on the {side} side"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class KindMismatch(DolkitError):
    """Correspondence or merged class relates symbols of different kinds."""


class HeterogeneousAlignment(DolkitError):
    """Alignment sides flatten to theories in different logics."""


class EmptyCombine(DolkitError):
    """`combine` over an empty alignment list."""


class NewSymbolInConjecture(DolkitError):
    """A proof obligation's conjecture mentions symbols outside its base theory."""


# -- select ------------------------------------------------------------------

class UnknownAxiomName(DolkitError):
    """Manual axiom selection referenced a label the theory does not have."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no axiom labelled {name!r}")


# -- prove -------------------------------------------------------------------

class UnsupportedFeature(DolkitError):
    """Input uses a feature the internal prover does not handle (e.g. equality)."""


# -- cli ---------------------------------------------------------------------

class NotACombine(DolkitError):
    """`combine` command aimed at a definition that is not a combination."""
