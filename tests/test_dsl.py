import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0heap.category import CategorySpec, k0_presentation, validate_spec
from k0heap.dsl import (
    Diagnostic,
    SpecSource,
    WordSyntaxError,
    bracket_text,
    data_lines,
    parse_bracket_word,
    parse_spec,
    print_spec,
)
from k0heap.heaps import RESERVED_LABEL_CHARS, check_label
from k0heap.instances import finite_sets_spec, swindle_spec, vect_spec
from oracles import parse_bracket_word_by_chars, parse_spec_by_columns

EXPECT = re.compile(r"#\s*expect:\s*(error|warning)\s+(\d+)\s+(\d+)\s+(.*)")


def parse_text(text, name="<test>"):
    return parse_spec(SpecSource(text=text, name=name))


def valid_files(data_dir):
    return sorted((data_dir / "valid").glob("*.cat"))


def malformed_files(data_dir):
    return sorted((data_dir / "malformed").glob("*.cat"))


def test_corpus_is_large_enough(data_dir):
    assert len(valid_files(data_dir)) >= 10
    assert len(malformed_files(data_dir)) >= 10


def test_valid_corpus_parses_without_errors(data_dir):
    for path in valid_files(data_dir):
        result = parse_text(path.read_text(), path.name)
        errors = [d for d in result.diagnostics if d.severity == "error"]
        assert not errors, f"{path.name}: {errors}"
        assert result.spec is not None
        assert not any(i.severity == "error" for i in validate_spec(result.spec))


def test_parse_print_parse_idempotent_on_corpus(data_dir):
    for path in valid_files(data_dir):
        first = parse_text(path.read_text(), path.name).spec
        printed = print_spec(first)
        second = parse_text(printed, path.name + "#printed").spec
        assert second == first, path.name
        assert print_spec(second) == printed, path.name


def test_print_round_trip_equals_original_spec():
    s = finite_sets_spec(3)
    result = parse_text(print_spec(s))
    assert result.spec == s


def test_frozen_set3_file_matches_generator(data_dir):
    text = (data_dir / "valid" / "set3.cat").read_text()
    assert parse_text(text).spec == finite_sets_spec(3)


def test_malformed_corpus_diagnostics(data_dir):
    for path in malformed_files(data_dir):
        text = path.read_text()
        expectations = [
            (m.group(1), int(m.group(2)), int(m.group(3)), m.group(4).strip())
            for m in (EXPECT.match(line) for line in text.splitlines())
            if m
        ]
        assert expectations, f"{path.name} carries no expectations"
        result = parse_text(text, path.name)
        assert result.spec is None, f"{path.name} unexpectedly parsed"
        emitted = {(d.severity, d.line, d.column): d.message for d in result.diagnostics}
        for severity, line, column, fragment in expectations:
            key = (severity, line, column)
            assert key in emitted, (
                f"{path.name}: expected {key}, got {sorted(emitted)}"
            )
            assert fragment in emitted[key], f"{path.name}: {emitted[key]!r}"


def test_duplicate_object_position():
    result = parse_text("object A\nobject A\n")
    assert result.spec is None
    d = result.diagnostics[0]
    assert (d.severity, d.line, d.column) == ("error", 2, 8)


def test_missing_mono_keeps_entry_with_warning(data_dir):
    text = (data_dir / "valid" / "warn.cat").read_text()
    result = parse_text(text)
    warnings = [d for d in result.diagnostics if d.severity == "warning"]
    assert len(warnings) == 1
    assert "mono" in warnings[0].message
    spec = result.spec
    assert len(spec.pushouts) == 1
    assert not spec.pushouts[0].qualifies
    assert k0_presentation(spec).relations == ()


def test_spec_lines_end_at_lf_crlf_or_cr_only():
    # \f, \x85 and \u2028 break lines for str.splitlines but not for a reader's line count
    text = "object A\x0c\r\nobject A\x85\robject B\u2028\nbogus\n"
    diagnostics = [(d.line, d.column, d.message) for d in parse_spec(SpecSource(text)).diagnostics]
    assert diagnostics == [(2, 8, "duplicate object 'A'"), (4, 1, "unknown directive 'bogus'")]


def test_data_lines_cut_comments_and_blanks_but_keep_line_numbers():
    text = "# header\n  a => b  # note\r\n\n   \r#\x0c\n\tc\x85d\n"
    assert list(data_lines(text)) == [(2, "a => b"), (6, "c\x85d")]
    assert list(data_lines("")) == []


def test_diagnostic_rendering():
    d = Diagnostic("error", 3, 9, "boom")
    assert d.render("demo.cat") == "demo.cat:3:9: error: boom"


def test_print_empty_spec_has_header_comment():
    out = print_spec(CategorySpec(objects=()))
    assert out.startswith("#")
    assert out.strip() == "# k0 category spec"
    reparsed = parse_text(out)
    assert reparsed.spec == CategorySpec(objects=())


def test_print_spec_emits_product_lines():
    s = CategorySpec(objects=("1", "x"), products={("x", "x"): "x"}, unit="1")
    out = print_spec(s)
    assert "product x * x = x" in out
    assert "unit 1" in out


def test_printed_entries_are_sorted():
    a = CategorySpec(
        objects=("x", "y"),
        pushouts=(
            parse_text("object x\nobject y\npushout y -> y [mono], y -> x => x\n").spec.pushouts[0],
            parse_text("object x\nobject y\npushout x -> x [mono], x -> y => y\n").spec.pushouts[0],
        ),
    )
    lines = print_spec(a).splitlines()
    pushout_lines = [l for l in lines if l.startswith("pushout")]
    assert pushout_lines == sorted(pushout_lines)


def test_bracket_word_parsing():
    assert parse_bracket_word("A") == "A"
    assert parse_bracket_word("[A,B,C]") == ["A", "B", "C"]
    assert parse_bracket_word("[A, [B,C,D] ,E]") == ["A", ["B", "C", "D"], "E"]
    assert bracket_text(parse_bracket_word("[A,[B,C,D],E]")) == "[A,[B,C,D],E]"


def test_bracket_word_errors_carry_columns():
    with pytest.raises(WordSyntaxError) as exc:
        parse_bracket_word("[A,B]")
    assert exc.value.column == 1
    with pytest.raises(WordSyntaxError):
        parse_bracket_word("[A,B,C")
    with pytest.raises(WordSyntaxError):
        parse_bracket_word("A B")
    with pytest.raises(WordSyntaxError):
        parse_bracket_word("")


@pytest.mark.parametrize(
    "word, message",
    [
        ("[a,]", "column 4: expected a label, got ']'"),
        ("[a b]", "column 4: expected ',' or ']', got 'b'"),
        ("[a [b]", "column 4: expected ',' or ']', got '['"),
        ("[a,b,c]]", "column 8: unexpected trailing input ']'"),
        ("a \x85 ]x", "column 5: unexpected trailing input ']x'"),
        ("[a, ", "column 5: unexpected end of input"),
        ("[a,b", "column 1: unclosed bracket"),
        ("[a,[b]", "column 1: unclosed bracket"),
    ],
)
def test_bracket_word_rejects_name_their_column(word, message):
    with pytest.raises(WordSyntaxError) as exc:
        parse_bracket_word(word)
    assert str(exc.value) == message


# Bracket words are read as regex tokens; the reader they replaced scanned one
# character at a time.  Both must give the same tree, or the same message at
# the same column.  The alphabet mixes whitespace other than ' ' and '\t'
# (\x0c, \x1c, \x85, \u2028, \xa0) with \u200b, which str.isspace() rejects.

WORD_SPACES = ("", " ", "\t", "\x0c", "\x1c", "\x85", "\u2028", "\xa0")
WORD_PIECES = ("[", "]", ",", "a", "bc", "\u200b", "x:y", "ω") + WORD_SPACES[1:]
WORD_TREES = st.recursive(
    st.sampled_from(("a", "bc", "\u200b", "ω")),
    lambda children: st.lists(children, max_size=5),
    max_leaves=12,
)


@st.composite
def spaced_words(draw):
    """A tree of any arity, printed with a space (or none) drawn before every token and after the last."""
    tokens = re.findall(r"[\[\],]|[^\[\],]+", bracket_text(draw(WORD_TREES)))
    return "".join(draw(st.sampled_from(WORD_SPACES)) + tok for tok in tokens) + draw(st.sampled_from(WORD_SPACES))


def word_outcome(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return str(exc), exc.column


@settings(max_examples=1500, deadline=None)
@given(
    st.one_of(
        spaced_words(),
        st.lists(st.sampled_from(WORD_PIECES), max_size=16).map("".join),
        st.text(alphabet="".join(WORD_PIECES), max_size=24),
    )
)
def test_bracket_words_read_as_the_character_walker_reads_them(text):
    assert word_outcome(parse_bracket_word, text) == word_outcome(parse_bracket_word_by_chars, text)


def label_message(token):
    with pytest.raises(ValueError) as exc:
        check_label(token)
    return str(exc.value)


# ',' is a token of its own and '#' starts a comment, so neither reaches a label
@pytest.mark.parametrize("ch", sorted(RESERVED_LABEL_CHARS - set(",#")))
def test_spec_label_reports_check_label_message(ch):
    token = f"x{ch}y"
    result = parse_text(f"object A\n  object {token}\n")
    assert result.spec is None
    d = result.diagnostics[0]
    assert (d.severity, d.line, d.column, d.message) == ("error", 2, 10, label_message(token))


# '[', ']' and ',' are bracket syntax, so they end a label instead
@pytest.mark.parametrize("ch", sorted(RESERVED_LABEL_CHARS - set("[],")))
def test_bracket_label_reports_check_label_message(ch):
    token = f"x{ch}y"
    with pytest.raises(WordSyntaxError) as exc:
        parse_bracket_word(f"[a, {token} ,b]")
    assert exc.value.column == 5
    assert str(exc.value) == f"column 5: {label_message(token)}"


# ---------------------------------------------------------------- fuzzing
#
# Spec texts over a small label pool, joined with LF, CRLF or CR line endings.
# A clean text declares every label of a pool of valid ones (ASCII and not),
# at most one zero and unit, and pushout and table lines, so it is often
# accepted; any other text also mixes in labels with reserved characters,
# repeated declarations, token soup and arbitrary text.

LABELS = ("A", "B", "empty", "0", "ω", "Zé", "日本", "object")
BAD_LABELS = ("x:y", "a[b", "p+q", "r>s")
PUNCTUATION = ("->", "=>", ",", "[mono]", "+", "*", "=", "#", "[", "]", ":", "<", ">", " ", "\t")
DIRECTIVES = ("object", "zero", "unit", "pushout", "sum", "product", "objects", "Object")

SLOT = st.integers(min_value=0, max_value=3)  # a label, as an index into the spec's pool
MONO = st.sampled_from(("", " [mono]"))
PUSHOUT_LINE = st.tuples(SLOT, SLOT, MONO, SLOT, MONO, SLOT).map(
    lambda t: ("pushout ", t[0], " -> ", t[1], t[2], ", ", t[0], " -> ", t[3], t[4], " => ", t[5])
)
TABLE_LINE = st.tuples(
    st.sampled_from(("sum ", "product ")), SLOT, st.sampled_from((" + ", " * ")), SLOT, st.just(" = "), SLOT
)
DIRECTIVE_LINE = st.one_of(
    st.tuples(st.sampled_from(("object ", "zero ", "unit ")), SLOT),
    PUSHOUT_LINE,
    st.tuples(
        st.just("pushout "), SLOT, st.just(" -> "), SLOT, MONO,
        st.sampled_from((", ", ",")), SLOT, st.just(" -> "), SLOT, MONO, st.just(" => "), SLOT,
    ),
    TABLE_LINE,
)
JUNK_LINE = st.one_of(
    st.lists(st.one_of(SLOT, st.sampled_from(DIRECTIVES + PUNCTUATION)), max_size=8).map(
        lambda parts: tuple(x for part in parts for x in (part, " "))
    ),
    st.text(max_size=20).map(lambda text: (text,)),
)


def spec_line(body):
    return st.tuples(st.sampled_from(("", " ", "\t")), body, st.sampled_from(("", "  # note", "#", " # ω ->")))


@st.composite
def spec_texts(draw):
    clean = draw(st.booleans())
    pool = draw(st.lists(st.sampled_from(LABELS if clean else LABELS + BAD_LABELS), min_size=1, max_size=4, unique=True))
    lines = [f"object {x}" for x in pool if clean or draw(st.booleans())]
    if clean:
        lines += [f"{kind} {draw(st.sampled_from(pool))}" for kind in ("zero", "unit") if draw(st.booleans())]
    body = st.one_of(PUSHOUT_LINE, TABLE_LINE) if clean else st.one_of(DIRECTIVE_LINE, JUNK_LINE)
    for indent, parts, comment in draw(st.lists(spec_line(body), min_size=clean, max_size=12)):
        lines.append(indent + "".join(pool[x % len(pool)] if isinstance(x, int) else x for x in parts) + comment)
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return ending.join(draw(st.permutations(lines))) + draw(st.sampled_from(("", ending)))


@settings(max_examples=400, deadline=None)
@given(spec_texts())
def test_fuzzed_specs_end_in_positioned_diagnostics_or_a_round_trip(text):
    result = parse_text(text)
    lines = re.split(r"\r\n|\r|\n", text)
    for d in result.diagnostics:
        assert d.severity in ("error", "warning")
        assert 1 <= d.line <= len(lines), d
        assert 1 <= d.column <= len(lines[d.line - 1]) + 1, d
    assert result.ok == (not any(d.severity == "error" for d in result.diagnostics))
    if result.ok:
        printed = print_spec(result.spec)
        again = parse_text(printed)
        assert again.spec == result.spec
        assert print_spec(again.spec) == printed


# ------------------------------------------------- against the column parser
#
# The parser keeps plain tokens and works a column out only for a diagnostic
# or an unresolved reference; the parser it replaced gave every token its
# column.  Both must give the same spec and the same diagnostics.


def assert_parses_like_the_column_parser(text):
    src = SpecSource(text=text, name="<test>")
    new, old = parse_spec(src), parse_spec_by_columns(src)
    assert new.diagnostics == old.diagnostics
    assert new.spec == old.spec
    if new.spec is not None:
        assert new.spec.pushouts == old.spec.pushouts  # in file order too


@settings(max_examples=400, deadline=None)
@given(spec_texts())
def test_fuzzed_specs_parse_as_the_column_parser_parses_them(text):
    assert_parses_like_the_column_parser(text)


def test_corpus_and_generated_specs_parse_as_the_column_parser_parses_them(data_dir):
    for path in malformed_files(data_dir) + valid_files(data_dir):
        assert_parses_like_the_column_parser(path.read_text())
    for n in range(1, 9):
        for generate in (finite_sets_spec, vect_spec, swindle_spec):
            assert_parses_like_the_column_parser(print_spec(generate(n)))


# A repeated apex that differs from the first is reported only once the arrow
# after it is read: a missing or wrong arrow is the first problem of its line.
@pytest.mark.parametrize(
    "line, column, message",
    [
        ("pushout a -> b [mono], b => c => d", 26, "expected '->', got '=>'"),
        ("pushout a -> b [mono], b", 25, "expected '->'"),
        ("pushout a -> b [mono], b -> c => d", 24, "apex mismatch: 'b' does not repeat 'a'"),
        ("pushout a -> b [mono] [mono], a -> c => d", 23, "expected ',', got '[mono]'"),
    ],
)
def test_pushout_walk_reports_the_first_problem_of_its_line(line, column, message):
    result = parse_text(DECLARED + line + "\n")
    assert result.spec is None
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [(5, column, message)]
    assert_parses_like_the_column_parser(DECLARED + line + "\n")


# A pushout line whose five labels are all declared and which has a [mono] leg
# is read with one pattern match; every other line is walked token by token.
# Each variant sits on either side of that split, or just across it.

DECLARED = "object a\nobject b\nobject c\nobject d\n"
PUSHOUT_VARIANTS = {
    "plain": "pushout a -> b [mono], a -> c => d",
    "right leg mono": "pushout a -> b, a -> c [mono] => d",
    "both legs mono": "pushout a -> b [mono], a -> c [mono] => d",
    "tabs and form feeds": "\tpushout\ta\x0c->  b\t[mono]\x0c,\ta ->\x0cc\t=>\x0cd\x0c",
    "comma with no space": "pushout a -> b [mono],a -> c => d",
    "comma spaced on both sides": "pushout a -> b , a -> c [mono] => d",
    "comma right after a label": "pushout a -> b,a -> c [mono] => d",
    "mono right before the comma": "pushout a -> b [mono],  a -> c => d",
    "trailing comment": "pushout a -> b [mono], a -> c => d  # a comment -> , [mono]",
    "comment right after the result": "pushout a -> b [mono], a -> c => d#",
    "forward reference": "pushout a -> b [mono], a -> c => e\nobject e",
    "label never declared": "pushout a -> b [mono], a -> c => z",
    "apex mismatch": "pushout a -> b [mono], b -> c => d",
    "apex is a prefix of the repeat": "pushout a -> b [mono], ab -> c => d\nobject ab",
    "no mono leg": "pushout a -> b, a -> c => d",
    "reserved character in a label": "pushout a -> b [mono], a -> c => d:e",
    "arrow with no spaces": "pushout a->b [mono], a->c => d",
    "trailing token": "pushout a -> b [mono], a -> c => d e",
    "doubled mono": "pushout a -> b [mono] [mono], a -> c => d",
    "mono glued to a label": "pushout a -> b[mono], a -> c => d",
    "missing result": "pushout a -> b [mono], a -> c =>",
    "directive glued to a comma": "pushout,a -> b [mono], a -> c => d",
}


@pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
@pytest.mark.parametrize("line", sorted(PUSHOUT_VARIANTS), ids=sorted(PUSHOUT_VARIANTS))
def test_pushout_line_variants_parse_as_the_column_parser_parses_them(line, ending):
    text = (DECLARED + PUSHOUT_VARIANTS[line] + "\npushout b -> c [mono], b -> d => a\n").replace("\n", ending)
    assert_parses_like_the_column_parser(text)
