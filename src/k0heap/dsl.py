"""Line-oriented text format for category specs, plus bracket-word syntax.

Grammar ('#' starts a comment, tokens are whitespace-separated, a comma
binds to no token):

    object NAME
    zero NAME
    unit NAME
    pushout APEX -> LEFT [mono]?, APEX -> RIGHT [mono]? => RESULT
    sum A + B = C
    product A * B = C

Parsing never falls back to silent defaults: every problem becomes a
positioned diagnostic (1-based line and column of the first offending
token; lines end at LF, CRLF or CR).  A parse with zero errors yields a
spec that passes validate_spec; entries without a monomorphic leg are kept
but flagged with a warning.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .category import CategorySpec, PushoutEntry, zero_law_violations
from .heaps import check_label

_TOKEN = re.compile(r",|[^\s,]+")
CW_CONVENTIONS = ("same-index", "boundary")  # the sphere index each disk is attached along


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by LF, CRLF or CR only.

    Unlike ``str.splitlines``, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029 stay
    inside a line, as they do for an editor's line count, so a line number
    in a message names the line a reader sees.  Every line-numbered reader
    in the package splits its input here.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class SpecSource(NamedTuple):
    text: str
    name: str = "<input>"


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    line: int
    column: int
    message: str

    def render(self, source_name: str = "<input>") -> str:
        return f"{source_name}:{self.line}:{self.column}: {self.severity}: {self.message}"


class ParseResult(NamedTuple):
    spec: CategorySpec | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.spec is not None


class WordSyntaxError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class _Parser:
    def __init__(self, src: SpecSource):
        self.src = src
        self.diagnostics: list[Diagnostic] = []
        self.objects: list[str] = []
        self.declared: set[str] = set()
        self.zero: tuple[str, int, int] | None = None
        self.unit: tuple[str, int, int] | None = None
        self.pushouts: list[PushoutEntry] = []
        self.sums: dict[tuple[str, str], str] = {}
        # (line, column) of each recorded sum entry, for late zero-law errors
        self.sum_positions: dict[tuple[str, str], tuple[int, int]] = {}
        self.products: dict[tuple[str, str], str] = {}
        # label references checked after all declarations are known
        self.references: list[tuple[str, int, int]] = []

    def error(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", line, col, message))

    def warning(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", line, col, message))

    def run(self) -> ParseResult:
        for lineno, raw in enumerate(split_lines(self.src.text), start=1):
            code = raw.split("#", 1)[0]
            tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]
            if not tokens:
                continue
            self.line(lineno, tokens)
        self.check_references()
        errors = any(d.severity == "error" for d in self.diagnostics)
        spec = None
        if not errors:
            spec = CategorySpec(
                objects=tuple(self.objects),
                pushouts=tuple(self.pushouts),
                zero=self.zero[0] if self.zero else None,
                sums=self.sums or None,
                products=self.products or None,
                unit=self.unit[0] if self.unit else None,
            )
        return ParseResult(spec=spec, diagnostics=tuple(self.diagnostics))

    def line(self, lineno: int, tokens: list[tuple[str, int]]) -> None:
        head, col = tokens[0]
        handler = {
            "object": self.parse_object,
            "zero": self.parse_zero,
            "unit": self.parse_unit,
            "pushout": self.parse_pushout,
            "sum": self.parse_sum,
            "product": self.parse_product,
        }.get(head)
        if handler is None:
            self.error(lineno, col, f"unknown directive {head!r}")
            return
        handler(lineno, tokens)

    def take_label(self, lineno: int, tokens, i: int, *, declare: bool = False) -> str | None:
        if i >= len(tokens):
            last_tok, last_col = tokens[-1]
            self.error(lineno, last_col + len(last_tok), "missing label")
            return None
        tok, col = tokens[i]
        if not declare and tok in self.declared:  # passed check_label when declared
            self.references.append((tok, lineno, col))
            return tok
        try:
            check_label(tok)
        except ValueError as exc:
            self.error(lineno, col, str(exc))
            return None
        if declare:
            if tok in self.declared:
                self.error(lineno, col, f"duplicate object {tok!r}")
                return None
            self.declared.add(tok)
        else:
            self.references.append((tok, lineno, col))
        return tok

    def expect(self, lineno: int, tokens, i: int, literal: str) -> bool:
        if i >= len(tokens):
            last_tok, last_col = tokens[-1]
            self.error(lineno, last_col + len(last_tok), f"expected {literal!r}")
            return False
        tok, col = tokens[i]
        if tok != literal:
            self.error(lineno, col, f"expected {literal!r}, got {tok!r}")
            return False
        return True

    def no_extra(self, lineno: int, tokens, i: int) -> bool:
        if i < len(tokens):
            tok, col = tokens[i]
            self.error(lineno, col, f"unexpected trailing token {tok!r}")
            return False
        return True

    def parse_object(self, lineno: int, tokens) -> None:
        name = self.take_label(lineno, tokens, 1, declare=True)
        if name is not None and self.no_extra(lineno, tokens, 2):
            self.objects.append(name)

    def parse_zero(self, lineno: int, tokens) -> None:
        if self.zero is not None:
            self.error(lineno, tokens[0][1], "duplicate zero declaration")
            return
        name = self.take_label(lineno, tokens, 1)
        if name is not None and self.no_extra(lineno, tokens, 2):
            self.zero = (name, lineno, tokens[1][1])

    def parse_unit(self, lineno: int, tokens) -> None:
        if self.unit is not None:
            self.error(lineno, tokens[0][1], "duplicate unit declaration")
            return
        name = self.take_label(lineno, tokens, 1)
        if name is not None and self.no_extra(lineno, tokens, 2):
            self.unit = (name, lineno, tokens[1][1])

    def parse_pushout(self, lineno: int, tokens) -> None:
        # pushout APEX -> LEFT [mono]?, APEX -> RIGHT [mono]? => RESULT
        i = 1
        apex = self.take_label(lineno, tokens, i)
        if apex is None or not self.expect(lineno, tokens, i + 1, "->"):
            return
        left = self.take_label(lineno, tokens, i + 2)
        if left is None:
            return
        i += 3
        left_mono = False
        if i < len(tokens) and tokens[i][0] == "[mono]":
            left_mono = True
            i += 1
        if not self.expect(lineno, tokens, i, ","):
            return
        i += 1
        apex2 = self.take_label(lineno, tokens, i)
        if apex2 is None or not self.expect(lineno, tokens, i + 1, "->"):
            return
        if apex2 != apex:
            self.error(lineno, tokens[i][1], f"apex mismatch: {apex2!r} does not repeat {apex!r}")
            return
        right = self.take_label(lineno, tokens, i + 2)
        if right is None:
            return
        i += 3
        right_mono = False
        if i < len(tokens) and tokens[i][0] == "[mono]":
            right_mono = True
            i += 1
        if not self.expect(lineno, tokens, i, "=>"):
            return
        result = self.take_label(lineno, tokens, i + 1)
        if result is None or not self.no_extra(lineno, tokens, i + 2):
            return
        if not (left_mono or right_mono):
            self.warning(
                lineno,
                tokens[0][1],
                "pushout has no [mono] leg: kept in the spec but it generates no relation",
            )
        self.pushouts.append(
            PushoutEntry(
                apex=apex,
                left=left,
                right=right,
                result=result,
                left_mono=left_mono,
                right_mono=right_mono,
            )
        )

    def parse_table_line(self, lineno: int, tokens, symbol: str):
        a = self.take_label(lineno, tokens, 1)
        if a is None or not self.expect(lineno, tokens, 2, symbol):
            return None
        b = self.take_label(lineno, tokens, 3)
        if b is None or not self.expect(lineno, tokens, 4, "="):
            return None
        c = self.take_label(lineno, tokens, 5)
        if c is None or not self.no_extra(lineno, tokens, 6):
            return None
        return a, b, c

    def parse_sum(self, lineno: int, tokens) -> None:
        parsed = self.parse_table_line(lineno, tokens, "+")
        if parsed is None:
            return
        a, b, c = parsed
        previous = self.sums.get((a, b))
        if previous is not None:
            if previous != c:
                self.error(lineno, tokens[0][1], f"conflicting sum for ({a}, {b}): {previous} vs {c}")
            else:
                self.warning(lineno, tokens[0][1], f"duplicate sum entry for ({a}, {b})")
            return
        self.sums[(a, b)] = c
        self.sum_positions[(a, b)] = (lineno, tokens[0][1])

    def parse_product(self, lineno: int, tokens) -> None:
        parsed = self.parse_table_line(lineno, tokens, "*")
        if parsed is None:
            return
        a, b, c = parsed
        previous = self.products.get((a, b))
        if previous is not None:
            if previous != c:
                self.error(
                    lineno, tokens[0][1], f"conflicting product for ({a}, {b}): {previous} vs {c}"
                )
            else:
                self.warning(lineno, tokens[0][1], f"duplicate product entry for ({a}, {b})")
            return
        self.products[(a, b)] = c

    def check_references(self) -> None:
        for label, lineno, col in self.references:
            if label not in self.declared:
                self.error(lineno, col, f"unknown object {label!r}")
        if self.zero is not None and self.zero[0] in self.declared:
            for a, b, c in zero_law_violations(self.zero[0], self.sums):
                line, col = self.sum_positions[(a, b)]
                self.error(line, col, f"sum {a} + {b} = {c} breaks the zero-object law")


def parse_spec(src: SpecSource) -> ParseResult:
    return _Parser(src).run()


def print_spec(s: CategorySpec) -> str:
    """Canonical text: objects in declaration order, entries sorted."""
    lines = ["# k0 category spec"]
    for o in s.objects:
        lines.append(f"object {o}")
    if s.zero is not None:
        lines.append(f"zero {s.zero}")
    if s.unit is not None:
        lines.append(f"unit {s.unit}")
    for e in sorted(s.pushouts):
        left = f"{e.left} [mono]" if e.left_mono else e.left
        right = f"{e.right} [mono]" if e.right_mono else e.right
        lines.append(f"pushout {e.apex} -> {left}, {e.apex} -> {right} => {e.result}")
    for (a, b), c in sorted((s.sums or {}).items()):
        lines.append(f"sum {a} + {b} = {c}")
    for (a, b), c in sorted((s.products or {}).items()):
        lines.append(f"product {a} * {b} = {c}")
    return "\n".join(lines) + "\n"


def parse_bracket_word(text: str):
    """Bracket expression -> nested tree of labels; odd arity enforced.

    Examples: 'A', '[A,B,C]', '[A,[B,C,D],E]'.  Open brackets live on an
    explicit stack, so nesting depth is bounded only by the input length.
    """
    n = len(text)
    pos = 0
    stack: list[tuple[list, int]] = []  # (children so far, column of the '[')
    node = None  # the node just completed, waiting for its parent
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if node is None:
            if pos >= n:
                raise WordSyntaxError("unexpected end of input", pos + 1)
            if text[pos] == "[":
                stack.append(([], pos + 1))
                pos += 1
                continue
            start = pos
            while pos < n and not text[pos].isspace() and text[pos] not in "[],":
                pos += 1
            node = text[start:pos]
            if not node:
                raise WordSyntaxError(f"expected a label, got {text[start]!r}", start + 1)
            try:
                check_label(node)
            except ValueError as exc:
                raise WordSyntaxError(str(exc), start + 1) from None
            continue
        if not stack:
            if pos != n:
                raise WordSyntaxError(f"unexpected trailing input {text[pos:]!r}", pos + 1)
            return node
        children, open_col = stack[-1]
        children.append(node)
        node = None
        if pos >= n:
            raise WordSyntaxError("unclosed bracket", open_col)
        if text[pos] == ",":
            pos += 1
            continue
        if text[pos] != "]":
            raise WordSyntaxError(f"expected ',' or ']', got {text[pos]!r}", pos + 1)
        pos += 1
        stack.pop()
        if len(children) % 2 == 0:
            raise WordSyntaxError(f"brackets need odd arity, got {len(children)} entries", open_col)
        node = children


def bracket_text(tree) -> str:
    out: list[str] = []
    stack = [tree]  # nodes, and the punctuation still to print after them
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        children = list(node)
        out.append("[")
        stack.append("]")
        for i in range(len(children) - 1, -1, -1):
            stack.append(children[i])
            if i:
                stack.append(",")
    return "".join(out)
