"""Line-oriented text format for category specs, plus bracket-word syntax.

Grammar ('#' starts a comment, tokens are whitespace-separated, a comma
binds to no token), stated once as the table ``_GRAMMAR`` that one walker
reads every directive through:

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
but flagged with a warning.  The input selects a fast path: a pushout line
that repeats its apex, has a [mono] leg and names only declared labels is
read with one pattern match; every other line is walked token by token,
and only that walk reports.  Every reference to a label declared before it
is read as the declared string, so a parsed spec holds one copy of each
label.  A bracket word is read as regex tokens: '[', ']', ',' and labels.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ._frozen import check_label

if TYPE_CHECKING:  # the spec parser loads category when it runs: reading a bracket word needs none of it
    from .category import CategorySpec, PushoutEntry

_TOKEN = re.compile(r",|[^\s,]+")
_WORD_TOKEN = re.compile(r"[\[\],]|[^\s\[\],]+")  # a bracket word's tokens: '[', ']', ',' and labels
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
    Directives dispatch through the module table ``_GRAMMAR``: a parser
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

    def report(self, i: int, message: str, severity: str = "error") -> None:
        self.diagnostics.append(Diagnostic(severity, self.lineno, _column(self.code, i), message))

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
            directive = _GRAMMAR.get(tokens[0])
            if directive is None:
                self.report(0, f"unknown directive {tokens[0]!r}")
            else:
                directive[0](self, tokens)
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
            self.report(i, "missing label")
            return None
        tok = tokens[i]
        if not declare:
            label = self.declared.get(tok)
            if label is not None:  # passed check_label when declared
                return label
        try:
            check_label(tok)
        except ValueError as exc:
            self.report(i, str(exc))
            return None
        if declare:
            if tok in self.declared:
                self.report(i, f"duplicate object {tok!r}")
                return None
            self.declared[tok] = tok
        else:
            self.references.append((tok, self.lineno, _column(self.code, i)))
        return tok

    def walk(self, tokens: list[str]) -> list | None:
        """The labels and [mono] flags of a line read by ``_GRAMMAR``, or None once its first problem is reported."""
        read: list = []
        apex = None  # a repeated apex, checked once the arrow after it is read
        i, n = 1, len(tokens)
        for slot in _GRAMMAR[tokens[0]][1]:
            tok = tokens[i] if i < n else None
            if slot == "[mono]":
                read.append(tok == slot)
                i += tok == slot
                continue
            if slot in ("new", "label", "apex"):
                label = self.take_label(tokens, i, declare=slot == "new")
                if label is None:
                    return None
                if slot == "apex":
                    apex = label
                else:
                    read.append(label)
            elif tok != slot:
                self.report(i, f"expected {slot!r}" if tok is None else f"expected {slot!r}, got {tok!r}")
                return None
            elif apex is not None:
                if apex != read[0]:
                    self.report(i - 1, f"apex mismatch: {apex!r} does not repeat {read[0]!r}")
                    return None
                apex = None
            i += 1
        if i < n:
            self.report(i, f"unexpected trailing token {tokens[i]!r}")
            return None
        return read

    def parse_object(self, tokens: list[str]) -> None:
        self.objects += self.walk(tokens) or ()

    def parse_point(self, tokens: list[str]) -> None:
        kind = tokens[0]
        if getattr(self, kind) is not None:
            self.report(0, f"duplicate {kind} declaration")
            return
        read = self.walk(tokens)
        if read is not None:
            setattr(self, kind, read[0])

    def parse_pushout(self, tokens: list[str]) -> None:
        read = self.walk(tokens)
        if read is None:
            return
        apex, left, left_mono, right, right_mono, result = read
        if not (left_mono or right_mono):
            self.report(0, "pushout has no [mono] leg: kept in the spec but it generates no relation", "warning")
        from .category import PushoutEntry
        self.pushouts.append(PushoutEntry(apex, left, right, result, left_mono, right_mono))

    def parse_table(self, tokens: list[str]) -> None:
        read = self.walk(tokens)
        if read is None:
            return
        kind, (a, b, c) = tokens[0], read
        table = self.sums if kind == "sum" else self.products
        previous = table.get((a, b))
        if previous is not None:
            if previous != c:
                self.report(0, f"conflicting {kind} for ({a}, {b}): {previous} vs {c}")
            else:
                self.report(0, f"duplicate {kind} entry for ({a}, {b})", "warning")
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


# each directive's handler and its slots after the keyword: "new" declares a label, "label" refers to one,
# "apex" must repeat the first label, "[mono]" is an optional flag, and any other slot is a literal token
_GRAMMAR = {
    "object": (_Parser.parse_object, ("new",)),
    "zero": (_Parser.parse_point, ("label",)),
    "unit": (_Parser.parse_point, ("label",)),
    "pushout": (_Parser.parse_pushout,
                ("label", "->", "label", "[mono]", ",", "apex", "->", "label", "[mono]", "=>", "label")),
    "sum": (_Parser.parse_table, ("label", "+", "label", "=", "label")),
    "product": (_Parser.parse_table, ("label", "*", "label", "=", "label")),
}


def _column(code: str, i: int, token: re.Pattern = _TOKEN) -> int:
    """1-based column of token ``i`` of ``code``, or just past its last token."""
    spans = [m.span() for m in token.finditer(code)]
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
    A token's column is worked out only for an error, by tokenizing again.
    """
    stack: list[tuple[list, int]] = []  # (children so far, index of the '[' token)
    node = None  # the node just completed, waiting for its parent
    for k, tok in enumerate(_WORD_TOKEN.findall(text)):
        if node is None:
            if tok == "[":
                stack.append(([], k))
                continue
            if tok == "]" or tok == ",":
                raise WordSyntaxError(f"expected a label, got {tok!r}", _column(text, k, _WORD_TOKEN))
            try:
                node = check_label(tok)
            except ValueError as exc:
                raise WordSyntaxError(str(exc), _column(text, k, _WORD_TOKEN)) from None
            continue
        if not stack:
            col = _column(text, k, _WORD_TOKEN)
            raise WordSyntaxError(f"unexpected trailing input {text[col - 1:]!r}", col)
        children, opened = stack[-1]
        children.append(node)
        node = None
        if tok == ",":
            continue
        if tok != "]":
            raise WordSyntaxError(f"expected ',' or ']', got {tok[0]!r}", _column(text, k, _WORD_TOKEN))
        stack.pop()
        if len(children) % 2 == 0:
            message = f"brackets need odd arity, got {len(children)} entries"
            raise WordSyntaxError(message, _column(text, opened, _WORD_TOKEN))
        node = children
    if node is None:
        raise WordSyntaxError("unexpected end of input", len(text) + 1)
    if stack:
        raise WordSyntaxError("unclosed bracket", _column(text, stack[-1][1], _WORD_TOKEN))
    return node


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
