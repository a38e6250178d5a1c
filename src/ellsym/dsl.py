"""Text format for operators and systems, plus the matching pretty-printer.

Grammar (comments run from '#' to end of line):

    file  := decl+
    decl  := "dim" INT
           | "operator" NAME "{" sig rows "}"
           | "constraint" NAME "{" sig rows "}"
    sig   := "from" INT "to" INT
    rows  := "rows" ":" row ((";" | NEWLINE) row)*
    row   := ["-"] term (("+" | "-") term)*
    term  := factor (["*"] factor)*       (adjacency is multiplication too)
    factor:= RATIONAL | ("d" INT)["^" INT] | ("f"|"u") INT
           | "(" row ")" ["^" INT]

Coefficients are rationals written as INT or INT/INT; derivative tokens are
d1..dn, n at most MAX_SPACE_DIM; each row must be homogeneous (all terms share
one total derivative order). Rows stay linear in the components: a group may
hold components, as in `d1 (d1 u1 + d2 u2)`, but a group with components may
not be raised to a power above 1, and no product may have two factors with
components. Groups nest at most MAX_GROUP_DEPTH deep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    DslSyntaxError,
    DuplicateBlockError,
    NonHomogeneousRowError,
    UnknownComponentError,
)
from .operators import OperatorSpec, SystemSpec
from .poly import Polynomial

MAX_EXPANSION_BITS = 2**17  # terms × coefficient bits of a power or product of groups, at most
MAX_GROUP_DEPTH = 100  # nested groups; three parser frames each, well inside Python's recursion limit
MAX_SPACE_DIM = 64  # n of `dim` and of `parse_operator`; the tests reach 22, the bundled systems 4

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "+": "PLUS",
    "-": "MINUS",
    "^": "CARET",
    "/": "SLASH",
    ";": "SEMI",
    ":": "COLON",
    "*": "STAR",
}


@dataclass
class Token:
    kind: str
    value: object
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() and ch.isascii():  # isdigit alone admits ², ٣, …
            start = i
            while i < n and text[i].isdigit() and text[i].isascii():
                i += 1
            tokens.append(Token("NUMBER", int(text[start:i]), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


def _height(p):
    """The largest numerator or denominator of p's coefficients (1 for p = 0)."""
    return max((max(abs(c.numerator), c.denominator) for c in p.terms.values()), default=1)


def _named(tok, noun=""):
    """A token as a message names it: its text after `noun`, or the end of input."""
    return "end of input" if tok.kind == "EOF" else f"{noun}{tok.value!r}"


def _check_expansion(terms, bits, what, tok):
    """DslSyntaxError unless `terms` coefficients of `bits` bits fit MAX_EXPANSION_BITS."""
    if terms * bits > MAX_EXPANSION_BITS:
        raise DslSyntaxError(
            f"{what} may expand to {terms} terms of about {bits} bits each, over the "
            f"budget of {MAX_EXPANSION_BITS} bits", tok.line, tok.col)


class _RowValue:
    """A scalar polynomial plus a linear part Σ comps[i]·component_i: a term, a
    group or a row. A term without groups is one monomial, so polynomial
    products come only from groups."""

    def __init__(self, nvars, scalar=None, comps=None):
        self.nvars = nvars
        self.scalar = scalar if scalar is not None else Polynomial.zero(nvars)
        self.comps = comps or {}

    def add(self, other, negate):
        """Add other, or −other when negate, to this sum in place."""
        self.scalar += -other.scalar if negate else other.scalar
        for i, p in other.comps.items():
            p = -p if negate else p
            self.comps[i] = self.comps[i] + p if i in self.comps else p

    def mul(self, other, tok):
        """The product; the parser lets at most one factor hold components."""
        if other.comps:
            return other.mul(self, tok)
        # other is scalar. p·q has at most t₁t₂ terms and at most the monomials of
        # degree ≤ deg p + deg q; a coefficient is at most min(t₁, t₂)·H_p·H_q. A
        # one-term factor adds no term: the monomial of a term multiplies its
        # groups last, and its coefficient is a product of numbers of the text.
        q = other.scalar
        for p in (self.scalar, *self.comps.values()):
            t1, t2 = len(p.terms), len(q.terms)
            if min(t1, t2) <= 1:
                continue
            degree = (p.degree() or 0) + (q.degree() or 0)
            terms = min(t1 * t2, math.comb(degree + self.nvars, self.nvars))
            bits = (min(t1, t2) * _height(p) * _height(q)).bit_length()
            _check_expansion(terms, bits, f"a product of factors of {t1} and {t2} terms", tok)
        return _RowValue(self.nvars, self.scalar * q, {i: p * q for i, p in self.comps.items()})

    def power(self, k, tok):
        if self.comps:
            if k == 1:
                return self
            raise DslSyntaxError(
                "cannot raise a component expression to a power", tok.line, tok.col
            )
        # p^k has at most C(t + k − 1, k) terms and at most the monomials of degree
        # ≤ k·deg p; a coefficient has about log2 (t·H)^k bits, H the largest of p's
        p, t = self.scalar, max(len(self.scalar.terms), 1)
        terms = min(math.comb(t + k - 1, k), math.comb(k * (p.degree() or 0) + self.nvars, self.nvars))
        bits = k * (t * _height(p)).bit_length()
        _check_expansion(terms, bits, f"power {k} of a group of {t} terms", tok)
        return _RowValue(self.nvars, p**k)


class _Parser:
    def __init__(self, tokens, nvars):
        if nvars > MAX_SPACE_DIM:
            raise DslSyntaxError(f"dimension {nvars} is over the budget of {MAX_SPACE_DIM}")
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.depth = 0  # groups open at the current token

    def peek(self, skip_newlines=True):
        pos = self.pos
        while skip_newlines and self.tokens[pos].kind == "NEWLINE":
            pos += 1
        return self.tokens[pos]

    def next(self, skip_newlines=True):
        while skip_newlines and self.tokens[self.pos].kind == "NEWLINE":
            self.pos += 1
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {what or kind}, found {_named(tok)}", tok.line, tok.col)
        return tok

    def expect_ident(self, word):
        tok = self.next()
        if tok.kind != "IDENT" or tok.value != word:
            raise DslSyntaxError(f"expected '{word}', found {_named(tok)}", tok.line, tok.col)
        return tok

    def at_ident(self, word):
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == word

    # -- expressions --------------------------------------------------------

    def parse_rational(self):
        tok = self.expect("NUMBER", "a number")
        value = Fraction(tok.value)
        if self.peek(skip_newlines=False).kind == "SLASH":
            self.next(skip_newlines=False)
            den = self.expect("NUMBER", "a denominator")
            if den.value == 0:
                raise DslSyntaxError("zero denominator", den.line, den.col)
            value /= den.value
        return value

    def _classify_ident(self, tok):
        name = tok.value
        if len(name) >= 2 and name[0] in "dfu" and name[1:].isdigit() and name.isascii():
            return name[0], int(name[1:])
        raise DslSyntaxError(
            f"expected a derivative (d1..d{self.nvars}) or component, found {name!r}",
            tok.line,
            tok.col,
        )

    def parse_exponent(self):
        """The INT after a '^' and its token; (1, None) when no '^' follows."""
        if self.peek(skip_newlines=False).kind != "CARET":
            return 1, None
        self.next(skip_newlines=False)
        exp = self.expect("NUMBER", "an exponent")
        return exp.value, exp

    def parse_group(self):
        tok = self.next(skip_newlines=False)
        if self.depth == MAX_GROUP_DEPTH:
            raise DslSyntaxError(
                f"groups nested deeper than {MAX_GROUP_DEPTH} levels", tok.line, tok.col)
        self.depth += 1
        inner = self.parse_row_expr()
        self.expect("RPAREN", "')'")
        self.depth -= 1
        k, exp = self.parse_exponent()
        return inner if exp is None else inner.power(k, exp)

    def parse_term(self):
        """Numbers, derivatives and one component fold into one monomial
        c·ξ^α·u_i; groups multiply left to right, then by that monomial."""
        tok = self.peek(skip_newlines=False)
        coeff, alpha, comp, groups = 1, [0] * self.nvars, None, None
        while True:
            factor = self.peek(skip_newlines=False)
            linear = comp is not None or groups is not None and groups.comps
            if factor.kind == "NUMBER":
                coeff *= self.parse_rational()
            elif factor.kind == "LPAREN":
                group = self.parse_group()
                if linear and group.comps:
                    raise DslSyntaxError("expression is nonlinear in the components", tok.line, tok.col)
                groups = group if groups is None else groups.mul(group, tok)
            elif factor.kind == "IDENT":
                self.next(skip_newlines=False)
                letter, idx = self._classify_ident(factor)
                if letter == "d":
                    if not 1 <= idx <= self.nvars:
                        raise DslSyntaxError(f"derivative d{idx} out of range for dimension {self.nvars}",
                                             factor.line, factor.col)
                    k, exp = self.parse_exponent()
                    if exp is not None:  # the budget of a one-term group
                        _check_expansion(1, k, f"power {k} of {factor.value}", exp)
                    alpha[idx - 1] += k
                elif idx < 1:
                    raise UnknownComponentError(f"component index must be >= 1, got {idx}", factor.line, factor.col)
                elif linear:
                    raise DslSyntaxError("expression is nonlinear in the components", tok.line, tok.col)
                else:
                    comp = idx - 1
            else:
                raise DslSyntaxError(f"unexpected {_named(factor, 'token ')}", factor.line, factor.col)
            star = self.peek(skip_newlines=False)
            if star.kind == "STAR":
                self.next(skip_newlines=False)
            if self.peek(skip_newlines=False).kind not in ("NUMBER", "LPAREN", "IDENT"):
                if star.kind == "STAR":
                    raise DslSyntaxError("expected a factor after '*'", star.line, star.col)
                break
        mono = Polynomial.monomial(self.nvars, alpha, coeff)
        term = _RowValue(self.nvars, mono) if comp is None else _RowValue(self.nvars, None, {comp: mono})
        return term if groups is None else groups.mul(term, tok)

    def parse_row_expr(self):
        """A signed sum of terms, added up in place."""
        row = _RowValue(self.nvars)
        sign = self.peek()
        if sign.kind in ("PLUS", "MINUS"):
            self.next()
        while True:
            row.add(self.parse_term(), sign.kind == "MINUS")
            sign = self.peek(skip_newlines=False)
            if sign.kind not in ("PLUS", "MINUS"):
                return row
            self.next(skip_newlines=False)

    # -- rows / blocks ------------------------------------------------------

    def parse_rows(self):
        """List of (row dict comp->Polynomial, line of first token)."""
        self.expect_ident("rows")
        self.expect("COLON", "':' after 'rows'")
        rows = []
        while True:
            # skip row separators
            while self.peek(skip_newlines=False).kind in ("SEMI", "NEWLINE"):
                self.next(skip_newlines=False)
            tok = self.peek(skip_newlines=False)
            if tok.kind in ("RBRACE", "EOF"):
                return rows
            value = self.parse_row_expr()
            if not value.scalar.is_zero():
                raise DslSyntaxError(
                    "row has a term without a component", tok.line, tok.col
                )
            if not value.comps:
                raise DslSyntaxError("empty row", tok.line, tok.col)
            rows.append((value.comps, tok.line))

    def parse_sig(self):
        self.expect_ident("from")
        src = self.expect("NUMBER", "source dimension").value
        self.expect_ident("to")
        tgt = self.expect("NUMBER", "target dimension").value
        return src, tgt


def _build_operator(rows, nvars, sig, text_name="operator"):
    """Validate homogeneity/components and assemble the coefficient map."""
    source_dim = sig[0] if sig else 0
    if sig is None:
        for comps, _line in rows:
            for idx in comps:
                source_dim = max(source_dim, idx + 1)
        if source_dim == 0:
            raise DslSyntaxError(f"{text_name} has no components")
    target_dim = len(rows)
    if sig and sig[1] != target_dim:
        raise DimensionMismatchError(
            f"{text_name} declares {sig[1]} rows but defines {target_dim}"
        )
    if not rows:
        raise DslSyntaxError(f"{text_name} has no rows")
    for j, (comps, line) in enumerate(rows):
        degrees = set()
        for idx, p in comps.items():
            if idx >= source_dim:
                raise UnknownComponentError(
                    f"component {idx + 1} exceeds source dimension {source_dim}",
                    line,
                    None,
                )
            for alpha in p.terms:
                degrees.add(sum(alpha))
        if len(degrees) > 1:
            raise NonHomogeneousRowError(
                f"row {j + 1} mixes derivative orders {sorted(degrees)}", line, None
            )
    return OperatorSpec.from_terms(nvars, source_dim, target_dim, (
        (alpha, j, idx, c) for j, (comps, _line) in enumerate(rows)
        for idx, p in comps.items() for alpha, c in p.terms.items()))


def parse_operator(text, n):
    """Parse a bare operator description: optional 'from a to b', then rows."""
    if not isinstance(text, str):
        text = text.read()
    parser = _Parser(_tokenize(text), n)
    sig = None
    if parser.at_ident("from"):
        sig = parser.parse_sig()
    rows = parser.parse_rows()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise DslSyntaxError(f"unexpected trailing input {tok.value!r}", tok.line, tok.col)
    return _build_operator(rows, n, sig)


def parse_system(text):
    """Parse a full system file: dim declaration, operator block, optional constraint."""
    if not isinstance(text, str):
        text = text.read()
    tokens = _tokenize(text)
    # the dimension first, so polynomials know their variable count
    words = [tok for tok in tokens if tok.kind != "NEWLINE"]
    dim = None
    for tok, num in zip(words, words[1:]):
        if tok.kind == "IDENT" and tok.value == "dim":
            if num.kind != "NUMBER":
                raise DslSyntaxError("expected a number after 'dim'", num.line, num.col)
            if dim is not None:
                raise DuplicateBlockError("duplicate 'dim' declaration", tok.line, tok.col)
            dim = num.value
    if dim is None:
        raise DslSyntaxError("missing 'dim' declaration")
    if dim < 1:
        raise DslSyntaxError("dimension must be >= 1")

    parser = _Parser(tokens, dim)
    op = None
    constraint = None
    while True:
        tok = parser.peek()
        if tok.kind == "EOF":
            break
        if tok.kind == "IDENT" and tok.value == "dim":
            parser.next()
            parser.next()
            continue
        if tok.kind == "IDENT" and tok.value in ("operator", "constraint"):
            kind = tok.value
            parser.next()
            name_tok = parser.next()
            if name_tok.kind != "IDENT":
                raise DslSyntaxError(
                    f"expected a name after '{kind}'", name_tok.line, name_tok.col
                )
            parser.expect("LBRACE", "'{'")
            sig = parser.parse_sig()
            rows = parser.parse_rows()
            parser.expect("RBRACE", "'}'")
            built = _build_operator(rows, dim, sig, text_name=f"{kind} {name_tok.value}")
            if kind == "operator":
                if op is not None:
                    raise DuplicateBlockError("duplicate operator block", tok.line, tok.col)
                op = built
            else:
                if constraint is not None:
                    raise DuplicateBlockError(
                        "duplicate constraint block", tok.line, tok.col
                    )
                constraint = built
            continue
        raise DslSyntaxError(f"unexpected {_named(tok, 'token ')}", tok.line, tok.col)
    if op is None:
        raise DslSyntaxError("missing operator block")
    return SystemSpec(op, constraint, dim)


# -- pretty printing ---------------------------------------------------------


def _format_term(alpha, coeff, comp_idx, letter):
    mono = " ".join(
        f"d{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(alpha) if a
    )
    comp = f"{letter}{comp_idx + 1}"
    if coeff == 1 and mono:
        return f"{mono} {comp}"
    if coeff == 1:
        return comp
    if mono:
        return f"{coeff} {mono} {comp}"
    return f"{coeff} {comp}"


def format_operator(op, letter="u"):
    """Bare re-parseable form: the signature line, then the rows in the DSL's row
    syntax, one row per line, indented by two spaces."""
    lines = []
    for row in op.symbol().entries:  # the terms of a row by α descending, then by component
        terms = sorted(((alpha, i, c) for i, p in enumerate(row) for alpha, c in p.terms.items()),
                       key=lambda t: t[0], reverse=True)
        if not terms:
            lines.append(f"0 {letter}1")  # explicit zero row
            continue
        parts = []
        for pos, (alpha, i, c) in enumerate(terms):
            body = _format_term(alpha, abs(c), i, letter)
            if pos == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        lines.append(" ".join(parts))
    rows = ";\n".join("  " + line for line in lines)
    return f"from {op.source_dim} to {op.target_dim}\nrows:\n{rows}\n"


def format_system(sys_spec):
    """The system file: `dim`, then each block as `format_operator` writes it,
    indented by two spaces."""
    text = f"dim {sys_spec.n}\n"
    for head, op, letter in (("operator A", sys_spec.a, "u"), ("constraint C", sys_spec.c, "f")):
        if op is not None:
            body = "".join("  " + line for line in format_operator(op, letter).splitlines(True))
            text += f"{head} {{\n{body}}}\n"
    return text
