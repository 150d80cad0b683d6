"""Parser for noncommutative relation systems in the generators A and B.

Grammar (whitespace insignificant):

    system   := relation (',' relation)*
    relation := ['-'] term (('+'|'-') term)*
    term     := [int '*']? word | int
    word     := factor ('*' factor)*
    factor   := ('A'|'B') ('^' int)?

Exponents are positive integers.  Each parsed relation records its degree in
B so the counting engine can pick a strategy: relations of B-degree zero
filter the A enumeration, relations in which every word carries B exactly
once (in the shape A^i B A^j) are linear in B, anything else forces full
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class RelationSyntaxError(ValueError):
    """Malformed relation text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class Word:
    """A product of generator powers, e.g. A^2 * B * A."""

    factors: tuple[tuple[str, int], ...]

    def b_degree(self) -> int:
        return sum(e for g, e in self.factors if g == "B")

    def a_degree(self) -> int:
        return sum(e for g, e in self.factors if g == "A")

    def linear_split(self) -> tuple[int, int] | None:
        """For words of the shape A^i B A^j, the pair (i, j); else None."""
        pre = 0
        post = 0
        seen_b = False
        for g, e in self.factors:
            if g == "A":
                if seen_b:
                    post += e
                else:
                    pre += e
            else:
                if seen_b or e != 1:
                    return None
                seen_b = True
        return (pre, post) if seen_b else None

    def __str__(self):
        return "*".join(g if e == 1 else f"{g}^{e}" for g, e in self.factors)


@dataclass(frozen=True)
class Term:
    coeff: int
    word: Word | None  # None means the constant word (identity matrix)

    def b_degree(self) -> int:
        return self.word.b_degree() if self.word else 0


@dataclass(frozen=True)
class Relation:
    terms: tuple[Term, ...]
    #: "a_only", "b_linear" (affine in B allowed), or "general"
    kind: str

    def max_a_power(self) -> int:
        best = 0
        for t in self.terms:
            if t.word is None:
                continue
            split = t.word.linear_split()
            if split is not None:
                best = max(best, split[0], split[1])
            else:
                best = max(best, t.word.a_degree())
        return best

    def __str__(self):
        bits = []
        for i, t in enumerate(self.terms):
            c, w = t.coeff, t.word
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = str(w) if w is not None else "1"
            if mag != 1 or w is None:
                body = f"{mag}*{body}" if w is not None else str(mag)
            bits.append(body if i == 0 and sign == "+" else f" {sign} {body}" if i else f"-{body}")
        return "".join(bits)


@dataclass(frozen=True)
class RelationSystem:
    relations: tuple[Relation, ...]
    text: str = field(default="", compare=False)

    def is_b_linear(self) -> bool:
        return all(r.kind in ("a_only", "b_linear") for r in self.relations)

    def max_a_power(self) -> int:
        return max((r.max_a_power() for r in self.relations), default=0)

    def __str__(self):
        return ", ".join(str(r) for r in self.relations)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise RelationSyntaxError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise RelationSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])


def _parse_factor(sc: _Scanner) -> tuple[str, int]:
    sc.skip_ws()
    at = sc.pos
    ch = sc.peek()
    if ch not in ("A", "B"):
        if ch is not None and ch.isalpha():
            raise RelationSyntaxError(f"unknown generator {ch!r}", at)
        raise RelationSyntaxError("expected generator A or B", at)
    sc.take()
    exp = 1
    if sc.peek() == "^":
        sc.take()
        at = sc.pos
        exp = sc.integer()
        if exp < 1:
            raise RelationSyntaxError("exponent must be positive", at)
    return ch, exp


def _parse_term(sc: _Scanner) -> Term:
    sc.skip_ws()
    coeff = 1
    ch = sc.peek()
    if ch is not None and ch.isdigit():
        coeff = sc.integer()
        if sc.peek() == "*":
            sc.take()
        else:
            return Term(coeff, None)  # bare integer constant
    factors = [_parse_factor(sc)]
    while sc.peek() == "*":
        sc.take()
        factors.append(_parse_factor(sc))
    # merge adjacent equal generators so A*A and A^2 parse identically
    merged: list[tuple[str, int]] = []
    for g, e in factors:
        if merged and merged[-1][0] == g:
            merged[-1] = (g, merged[-1][1] + e)
        else:
            merged.append((g, e))
    return Term(coeff, Word(tuple(merged)))


def _classify(terms: tuple[Term, ...]) -> str:
    max_deg = max((t.b_degree() for t in terms), default=0)
    if max_deg == 0:
        return "a_only"
    if max_deg == 1 and all(
        t.word is None or t.b_degree() == 0 or t.word.linear_split() is not None
        for t in terms
    ):
        return "b_linear"
    return "general"


def parse_relations(text: str) -> RelationSystem:
    """Parse a comma-separated relation system.  Raises
    :class:`RelationSyntaxError` with the offending offset on bad input."""
    sc = _Scanner(text)
    relations = []
    if sc.peek() is None:
        return RelationSystem((), text=text)
    while True:
        terms: list[Term] = []
        sign = 1
        if sc.peek() == "-":
            sc.take()
            sign = -1
        term = _parse_term(sc)
        terms.append(Term(sign * term.coeff, term.word))
        while sc.peek() in ("+", "-"):
            op = sc.take()
            term = _parse_term(sc)
            s = -1 if op == "-" else 1
            terms.append(Term(s * term.coeff, term.word))
        relations.append(Relation(tuple(terms), _classify(tuple(terms))))
        nxt = sc.peek()
        if nxt is None:
            break
        if nxt != ",":
            raise RelationSyntaxError(f"unexpected character {nxt!r}", sc.pos)
        sc.take()
    return RelationSystem(tuple(relations), text=text)
