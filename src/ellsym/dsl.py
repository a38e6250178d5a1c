"""Text format for operators and systems, plus the matching pretty-printer.

Grammar (comments run from '#' to end of line):

    file  := decl+
    decl  := "dim" INT
           | "operator" NAME "{" sig rows "}"
           | "constraint" NAME "{" sig rows "}"
    sig   := "from" INT "to" INT
    rows  := "rows" ":" row ((";" | NEWLINE) row)*
    row   := ["-"] term (("+" | "-") term)*
    term  := factor+                      (adjacency is multiplication)
    factor:= RATIONAL | ("d" INT)["^" INT] | ("f"|"u") INT
           | "(" row ")" ["^" INT]

Coefficients are rationals written as INT or INT/INT; derivative tokens are
d1..dn; each row must be homogeneous (all terms share one total derivative
order). Parenthesized groups may only contain scalar (component-free)
expressions, so rows stay linear in the components, and nest at most
MAX_GROUP_DEPTH deep.
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


def _check_expansion(terms, bits, what, tok):
    """DslSyntaxError unless `terms` coefficients of `bits` bits fit MAX_EXPANSION_BITS."""
    if terms * bits > MAX_EXPANSION_BITS:
        raise DslSyntaxError(
            f"{what} may expand to {terms} terms of about {bits} bits each, over the "
            f"budget of {MAX_EXPANSION_BITS} bits", tok.line, tok.col)


class _RowValue:
    """scalar polynomial + linear part Σ comps[i]·component_i."""

    def __init__(self, nvars, scalar=None, comps=None):
        self.nvars = nvars
        self.scalar = scalar if scalar is not None else Polynomial.zero(nvars)
        self.comps = comps or {}

    def add(self, other):
        comps = dict(self.comps)
        for i, p in other.comps.items():
            comps[i] = comps.get(i, Polynomial.zero(self.nvars)) + p
        return _RowValue(self.nvars, self.scalar + other.scalar, comps)

    def neg(self):
        return _RowValue(
            self.nvars, -self.scalar, {i: -p for i, p in self.comps.items()}
        )

    def mul(self, other, tok):
        if self.comps and other.comps:
            raise DslSyntaxError(
                "expression is nonlinear in the components", tok.line, tok.col
            )
        if other.comps:
            return other.mul(self, tok)
        # other is scalar. p·q has at most t₁t₂ terms and at most the monomials of
        # degree ≤ deg p + deg q; a coefficient is at most min(t₁, t₂)·H_p·H_q. A
        # monomial factor adds no term, and its coefficient is a number of the text.
        q = other.scalar
        for p in (self.scalar, *self.comps.values()):
            t1, t2 = len(p.terms), len(q.terms)
            if min(t1, t2) <= 1:
                continue
            degree = (p.degree() or 0) + (q.degree() or 0)
            terms = min(t1 * t2, math.comb(degree + self.nvars, self.nvars))
            bits = (min(t1, t2) * _height(p) * _height(q)).bit_length()
            _check_expansion(terms, bits, f"a product of factors of {t1} and {t2} terms", tok)
        return _RowValue(
            self.nvars,
            self.scalar * other.scalar,
            {i: p * other.scalar for i, p in self.comps.items()},
        )

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
            raise DslSyntaxError(
                f"expected {what or kind}, found {tok.value!r}", tok.line, tok.col
            )
        return tok

    def expect_ident(self, word):
        tok = self.next()
        if tok.kind != "IDENT" or tok.value != word:
            raise DslSyntaxError(
                f"expected '{word}', found {tok.value!r}", tok.line, tok.col
            )
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

    def parse_factor(self):
        tok = self.peek(skip_newlines=False)
        if tok.kind == "NUMBER":
            return _RowValue(self.nvars, Polynomial.constant(self.nvars, self.parse_rational()))
        if tok.kind == "LPAREN":
            if self.depth == MAX_GROUP_DEPTH:
                raise DslSyntaxError(
                    f"groups nested deeper than {MAX_GROUP_DEPTH} levels", tok.line, tok.col)
            self.next()
            self.depth += 1
            inner = self.parse_row_expr()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return self._maybe_power(inner)
        if tok.kind == "IDENT":
            self.next(skip_newlines=False)
            letter, idx = self._classify_ident(tok)
            if letter == "d":
                if not 1 <= idx <= self.nvars:
                    raise DslSyntaxError(
                        f"derivative d{idx} out of range for dimension {self.nvars}",
                        tok.line,
                        tok.col,
                    )
                value = _RowValue(self.nvars, Polynomial.variable(self.nvars, idx - 1))
                return self._maybe_power(value)
            if idx < 1:
                raise UnknownComponentError(
                    f"component index must be >= 1, got {idx}", tok.line, tok.col
                )
            return _RowValue(
                self.nvars,
                None,
                {idx - 1: Polynomial.constant(self.nvars, 1)},
            )
        raise DslSyntaxError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def _maybe_power(self, value):
        nxt = self.peek(skip_newlines=False)
        if nxt.kind == "CARET":
            self.next(skip_newlines=False)
            exp = self.expect("NUMBER", "an exponent")
            return value.power(exp.value, exp)
        return value

    def parse_term(self):
        tok = self.peek(skip_newlines=False)
        value = self.parse_factor()
        while True:
            nxt = self.peek(skip_newlines=False)
            if nxt.kind == "STAR":
                self.next(skip_newlines=False)
                nxt = self.peek(skip_newlines=False)
            if nxt.kind in ("NUMBER", "LPAREN") or nxt.kind == "IDENT":
                value = value.mul(self.parse_factor(), tok)
            else:
                return value

    def parse_row_expr(self):
        tok = self.peek()
        negate = False
        if tok.kind in ("PLUS", "MINUS"):
            self.next()
            negate = tok.kind == "MINUS"
        value = self.parse_term()
        if negate:
            value = value.neg()
        while True:
            nxt = self.peek(skip_newlines=False)
            if nxt.kind not in ("PLUS", "MINUS"):
                return value
            self.next(skip_newlines=False)
            term = self.parse_term()
            value = value.add(term.neg() if nxt.kind == "MINUS" else term)

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
        raise DslSyntaxError(f"unexpected token {tok.value!r}", tok.line, tok.col)
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


def format_rows(op, letter="u", indent="  "):
    """Rows of an operator in the DSL's row syntax, one row per line."""
    lines = []
    for j in range(op.target_dim):
        terms = []
        for alpha, mat in sorted(op.coeffs.items(), key=lambda kv: kv[0], reverse=True):
            for i in range(op.source_dim):
                c = mat[j][i]
                if c != 0:
                    terms.append((alpha, i, c))
        terms.sort(key=lambda t: (tuple(-x for x in t[0]), t[1]))
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
    return (";\n".join(indent + line for line in lines)).split("\n")


def format_operator(op, letter="u"):
    """Bare re-parseable form: signature line plus rows."""
    lines = [f"from {op.source_dim} to {op.target_dim}", "rows:"]
    lines += format_rows(op, letter=letter)
    return "\n".join(lines) + "\n"


def format_system(sys_spec, op_name="A", constraint_name="C"):
    lines = [f"dim {sys_spec.n}", f"operator {op_name} {{"]
    lines.append(f"  from {sys_spec.a.source_dim} to {sys_spec.a.target_dim}")
    lines.append("  rows:")
    lines += ["  " + ln for ln in format_rows(sys_spec.a, letter="u")]
    lines.append("}")
    if sys_spec.c is not None:
        lines.append(f"constraint {constraint_name} {{")
        lines.append(f"  from {sys_spec.c.source_dim} to {sys_spec.c.target_dim}")
        lines.append("  rows:")
        lines += ["  " + ln for ln in format_rows(sys_spec.c, letter="f")]
        lines.append("}")
    return "\n".join(lines) + "\n"
