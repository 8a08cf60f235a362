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
but flagged with a warning.  A pushout line that repeats its apex, has a
[mono] leg and names only declared labels is read with one pattern match;
every other line is walked token by token, and only that walk reports.
Every reference to a label declared before it is read as the declared
string, so a parsed spec holds one copy of each label.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ._frozen import check_label

if TYPE_CHECKING:  # the spec parser loads category when it runs: reading a bracket word needs none of it
    from .category import CategorySpec, PushoutEntry

_TOKEN = re.compile(r",|[^\s,]+")
# a pushout line as its tokens run, apex repeated; its own whitespace class is the one _TOKEN splits on
_PUSHOUT = re.compile(
    r"\s*pushout\s+([^\s,]+)\s+->\s+([^\s,]+)(\s+\[mono\])?\s*,"
    r"\s*\1\s+->\s+([^\s,]+)(\s+\[mono\])?\s+=>\s+([^\s,]+)\s*"
)
CW_CONVENTIONS = ("same-index", "boundary")  # the sphere index each disk is attached along


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by LF, CRLF or CR only.

    Unlike ``str.splitlines``, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029 stay
    inside a line, as they do for an editor's line count, so a line number
    in a message names the line a reader sees.  Every line-numbered reader
    in the package splits its input here.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of ``text`` with its '#' comment and outer whitespace cut, if not blank."""
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


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
    """One pass over the lines; tokens are plain strings.

    A token's column is worked out only when a diagnostic or an unresolved
    reference needs it, by tokenizing the line again.  A reference to an
    already declared label is not recorded: it can never be unknown.
    Directives dispatch through the module table ``_HANDLERS``: a parser
    holds no bound method of its own, so it is freed as soon as it is
    dropped, not by the cycle collector.
    """

    def __init__(self, src: SpecSource):
        self.src = src
        self.diagnostics: list[Diagnostic] = []
        self.objects: list[str] = []
        self.declared: dict[str, str] = {}  # each declared label, mapped to itself
        self.zero: str | None = None
        self.unit: str | None = None
        self.pushouts: list[PushoutEntry] = []
        self.sums: dict[tuple[str, str], str] = {}
        # (line number, code) of each recorded sum entry, for late zero-law errors
        self.sum_lines: dict[tuple[str, str], tuple[int, str]] = {}
        self.products: dict[tuple[str, str], str] = {}
        # (label, line, column) of references to labels not yet declared
        self.references: list[tuple[str, int, int]] = []
        self.lineno = 0
        self.code = ""  # the current line without its comment

    def error(self, i: int, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", self.lineno, _column(self.code, i), message))

    def warning(self, i: int, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", self.lineno, _column(self.code, i), message))

    def run(self) -> ParseResult:
        from .category import CategorySpec, PushoutEntry
        label_of, pushouts, read_pushout = self.declared.get, self.pushouts, _PUSHOUT.fullmatch
        for lineno, raw in enumerate(split_lines(self.src.text), start=1):
            code = raw.split("#", 1)[0]
            m = read_pushout(code)
            if m is not None:  # a line taken here is one the token walk would find nothing to say about
                apex, left, left_mono, right, right_mono, result = m.groups()
                apex, left, right, result = label_of(apex), label_of(left), label_of(right), label_of(result)
                if (left_mono or right_mono) and apex and left and right and result:  # labels are never empty
                    pushouts.append(PushoutEntry(apex, left, right, result, bool(left_mono), bool(right_mono)))
                    continue
            tokens = _TOKEN.findall(code)
            if not tokens:
                continue
            self.lineno, self.code = lineno, code
            handler = _HANDLERS.get(tokens[0])
            if handler is None:
                self.error(0, f"unknown directive {tokens[0]!r}")
            else:
                handler(self, tokens)
        self.check_references()
        errors = any(d.severity == "error" for d in self.diagnostics)
        spec = None
        if not errors:
            spec = CategorySpec(
                objects=tuple(self.objects),
                pushouts=tuple(self.pushouts),
                zero=self.zero,
                sums=self.sums or None,
                products=self.products or None,
                unit=self.unit,
            )
        return ParseResult(spec=spec, diagnostics=tuple(self.diagnostics))

    def take_label(self, tokens: list[str], i: int, *, declare: bool = False) -> str | None:
        if i >= len(tokens):
            self.error(i, "missing label")
            return None
        tok = tokens[i]
        if not declare:
            label = self.declared.get(tok)
            if label is not None:  # passed check_label when declared
                return label
        try:
            check_label(tok)
        except ValueError as exc:
            self.error(i, str(exc))
            return None
        if declare:
            if tok in self.declared:
                self.error(i, f"duplicate object {tok!r}")
                return None
            self.declared[tok] = tok
        else:
            self.references.append((tok, self.lineno, _column(self.code, i)))
        return tok

    def expect(self, tokens: list[str], i: int, literal: str) -> bool:
        if i >= len(tokens):
            self.error(i, f"expected {literal!r}")
            return False
        if tokens[i] != literal:
            self.error(i, f"expected {literal!r}, got {tokens[i]!r}")
            return False
        return True

    def no_extra(self, tokens: list[str], i: int) -> bool:
        if i < len(tokens):
            self.error(i, f"unexpected trailing token {tokens[i]!r}")
            return False
        return True

    def parse_object(self, tokens: list[str]) -> None:
        name = self.take_label(tokens, 1, declare=True)
        if name is not None and self.no_extra(tokens, 2):
            self.objects.append(name)

    def parse_point(self, tokens: list[str]) -> None:
        # zero NAME | unit NAME
        kind = tokens[0]
        if getattr(self, kind) is not None:
            self.error(0, f"duplicate {kind} declaration")
            return
        name = self.take_label(tokens, 1)
        if name is not None and self.no_extra(tokens, 2):
            setattr(self, kind, name)

    def parse_pushout(self, tokens: list[str]) -> None:
        # pushout APEX -> LEFT [mono]?, APEX -> RIGHT [mono]? => RESULT
        apex = self.take_label(tokens, 1)
        if apex is None or not self.expect(tokens, 2, "->"):
            return
        left = self.take_label(tokens, 3)
        if left is None:
            return
        i = 4
        left_mono = i < len(tokens) and tokens[i] == "[mono]"
        i += left_mono
        if not self.expect(tokens, i, ","):
            return
        i += 1
        apex2 = self.take_label(tokens, i)
        if apex2 is None or not self.expect(tokens, i + 1, "->"):
            return
        if apex2 != apex:
            self.error(i, f"apex mismatch: {apex2!r} does not repeat {apex!r}")
            return
        right = self.take_label(tokens, i + 2)
        if right is None:
            return
        i += 3
        right_mono = i < len(tokens) and tokens[i] == "[mono]"
        i += right_mono
        if not self.expect(tokens, i, "=>"):
            return
        result = self.take_label(tokens, i + 1)
        if result is None or not self.no_extra(tokens, i + 2):
            return
        if not (left_mono or right_mono):
            self.warning(0, "pushout has no [mono] leg: kept in the spec but it generates no relation")
        from .category import PushoutEntry
        self.pushouts.append(PushoutEntry(apex, left, right, result, left_mono, right_mono))

    def parse_table(self, tokens: list[str]) -> None:
        # sum A + B = C | product A * B = C
        kind = tokens[0]
        a = self.take_label(tokens, 1)
        if a is None or not self.expect(tokens, 2, "+" if kind == "sum" else "*"):
            return
        b = self.take_label(tokens, 3)
        if b is None or not self.expect(tokens, 4, "="):
            return
        c = self.take_label(tokens, 5)
        if c is None or not self.no_extra(tokens, 6):
            return
        table = self.sums if kind == "sum" else self.products
        previous = table.get((a, b))
        if previous is not None:
            if previous != c:
                self.error(0, f"conflicting {kind} for ({a}, {b}): {previous} vs {c}")
            else:
                self.warning(0, f"duplicate {kind} entry for ({a}, {b})")
            return
        table[(a, b)] = c
        if kind == "sum":
            self.sum_lines[(a, b)] = (self.lineno, self.code)

    def check_references(self) -> None:
        from .category import zero_law_violations
        for label, lineno, col in self.references:
            if label not in self.declared:
                self.diagnostics.append(Diagnostic("error", lineno, col, f"unknown object {label!r}"))
        if self.zero is not None and self.zero in self.declared:
            for a, b, c in zero_law_violations(self.zero, self.sums):
                lineno, code = self.sum_lines[(a, b)]
                message = f"sum {a} + {b} = {c} breaks the zero-object law"
                self.diagnostics.append(Diagnostic("error", lineno, _column(code, 0), message))


_HANDLERS = {
    "object": _Parser.parse_object,
    "zero": _Parser.parse_point,
    "unit": _Parser.parse_point,
    "pushout": _Parser.parse_pushout,
    "sum": _Parser.parse_table,
    "product": _Parser.parse_table,
}


def _column(code: str, i: int) -> int:
    """1-based column of token ``i`` of ``code``, or just past its last token."""
    spans = [m.span() for m in _TOKEN.finditer(code)]
    return spans[i][0] + 1 if i < len(spans) else spans[-1][1] + 1


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
