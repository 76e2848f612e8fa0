"""Parser for the map DSL exposed on the command line.

Grammar:

    expr   := factor+
    factor := atom ('^' int)?
    atom   := 'V' | 'H' | 'T' '(' num ',' num ')' | '(' expr ')'

Juxtaposition composes right to left, so "V^3 H^3" is the vertical shear
cubed applied after the horizontal shear cubed.  Numbers may be integers,
rationals "p/q", or decimals (converted exactly).  An optional trailing
"@pl:<file>" selects a piecewise-linear profile file; the default profile
is sin^2(pi x).  Shear atoms accept any integer exponent (negative powers
invert a shear); parenthesized groups and translations require a positive
exponent.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .dynamics import (
    Compose,
    HShear,
    MapExpr,
    Power,
    Profile,
    Translate,
    VShear,
    default_profile,
    load_piecewise_profile,
)


class DslParseError(ValueError):
    """Parse failure with a character offset into the source string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def format_caret(source: str, error: DslParseError) -> str:
    """Two-line snippet pointing at the offending character."""
    pos = min(error.position, len(source))
    return f"{source}\n{' ' * pos}^ {error.message}"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>[+-]?\d+(?:/\d+|\.\d+)?)
  | (?P<sym>[VHT^(),])
    """,
    re.VERBOSE,
)


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise DslParseError(f"unexpected character {src[i]!r}", i)
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), i))
        elif m.lastgroup == "sym":
            tokens.append((m.group(), m.group(), i))
        i = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    MAX_DEPTH = 100  # group nesting; keeps the recursive descent off the stack limit

    def __init__(self, tokens, profile: Profile):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.profile = profile

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str | None = None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise DslParseError(f"expected {kind!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self) -> MapExpr:
        factors = []
        while self.peek()[0] in ("V", "H", "T", "("):
            factors.append(self.parse_factor())
        if not factors:
            tok = self.peek()
            raise DslParseError("expected V, H, T(a,b) or a parenthesized group", tok[2])
        if len(factors) == 1:
            return factors[0]
        return Compose(tuple(factors))

    def parse_factor(self) -> MapExpr:
        atom, is_shear = self.parse_atom()
        if self.peek()[0] == "^":
            self.take("^")
            tok = self.peek()
            if tok[0] != "num" or not re.fullmatch(r"[+-]?\d+", tok[1]):
                raise DslParseError("expected an integer exponent after '^'", tok[2])
            self.take()
            try:
                k = int(tok[1])
            except ValueError:
                raise DslParseError("exponent has too many digits", tok[2]) from None
            if is_shear:
                base = atom
                return type(base)(base.profile, base.power * k)
            if k < 1:
                raise DslParseError("group exponents must be positive", tok[2])
            return Power(atom, k) if k > 1 else atom
        return atom

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "V":
            self.take()
            return VShear(self.profile, 1), True
        if tok[0] == "H":
            self.take()
            return HShear(self.profile, 1), True
        if tok[0] == "T":
            self.take()
            self.take("(")
            a = self._number()
            self.take(",")
            b = self._number()
            self.take(")")
            return Translate(a, b), False
        if tok[0] == "(":
            if self.depth == self.MAX_DEPTH:
                raise DslParseError(f"groups nested deeper than {self.MAX_DEPTH}", tok[2])
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            if self.peek()[0] != ")":
                raise DslParseError("expected ')'", self.peek()[2])
            self.take(")")
            return inner, False
        raise DslParseError("expected V, H, T(a,b) or '('", tok[2])

    def _number(self) -> float:
        tok = self.peek()
        if tok[0] != "num":
            raise DslParseError("expected a number", tok[2])
        self.take()
        try:
            return float(Fraction(tok[1]))  # exact for "p/q", integers and decimals
        except ZeroDivisionError:
            raise DslParseError("zero denominator", tok[2]) from None
        except (ValueError, OverflowError):
            raise DslParseError("number out of range", tok[2]) from None


def parse_map(source: str, *, profile: Profile | None = None) -> MapExpr:
    """Parse a DSL string into a map expression.

    A trailing "@pl:<file>" loads a piecewise-linear profile for the shear
    atoms; otherwise `profile` (default sin^2) is used.
    """
    text = source
    if "@" in source:
        text, suffix = source.split("@", 1)
        suffix = suffix.strip()
        if not suffix.startswith("pl:"):
            raise DslParseError("expected 'pl:<file>' after '@'",
                                source.index("@") + 1)
        profile = load_piecewise_profile(suffix[3:].strip())
    if profile is None:
        profile = default_profile()
    parser = _Parser(_tokenize(text), profile)
    expr = parser.parse_expr()
    end = parser.peek()
    if end[0] != "end":
        raise DslParseError(f"unexpected {end[1]!r}", end[2])
    return expr
