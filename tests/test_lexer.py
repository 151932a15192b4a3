import sys
from array import array

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lexer_oracle
from smellstab.lexer import kind_of, logical_lines, tokenize


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The file's token columns as (kind, value, line) rows."""
    cols = tokenize(text)
    return [(kind_of(v), v, line) for v, line in zip(cols.values, cols.lines)]


def test_empty_region_is_zero():
    assert len(logical_lines("")) == 0


def test_blank_and_comment_lines_excluded():
    text = "int a;\n\nint b;\n// comment only\nint c;\n\n/* block */\n"
    assert len(logical_lines(text)) == 3


def test_mixed_code_comment_line_counts_once():
    assert len(logical_lines("int x = 1; // init")) == 1


def test_block_comment_spanning_lines():
    text = "int a;\n/* one\n   two\n   three */\nint b;\n"
    assert len(logical_lines(text)) == 2


def test_javadoc_excluded():
    text = "/** doc\n * @param x\n */\nvoid m() {}\n"
    assert len(logical_lines(text)) == 1


def test_string_containing_comment_markers_is_code():
    text = 'String s = "// not a comment";\n'
    assert len(logical_lines(text)) == 1


def test_comment_after_code_then_code_line():
    text = "int a; /* start\n still comment */ int b;\n"
    # line 2 has the token `int b;` after the comment closes
    assert len(logical_lines(text)) == 2


def test_tokenize_line_numbers():
    toks = _tokens("a\nb\n\nc")
    assert [(value, line) for _, value, line in toks] == [("a", 1), ("b", 2), ("c", 4)]


def test_tokenize_returns_whole_file_columns_of_interned_values():
    cols = tokenize("class A { String s = \"a\" + b; }\nint b;")
    assert len(cols) == 14 and (cols.start, cols.end) == (0, 14)
    assert type(cols.values) is tuple and isinstance(cols.lines, array) and cols.lines.typecode == "I"
    assert all(sys.intern(v) is v for v in cols.values)
    assert list(cols.lines) == [1] * 11 + [2] * 3


def test_logical_lines_normalize_whitespace_and_comments():
    a = logical_lines("int x = 1;  // note\n\n   int y  =  2;\n")
    b = logical_lines("int x = 1;\nint y = 2; /* other note */\n")
    assert a == b == ["int x = 1 ;", "int y = 2 ;"]


def test_char_and_text_block_literals():
    text = "char c = '{';\nString s = \"\"\"\nbody { }\n\"\"\";\n"
    toks = _tokens(text)
    assert any(kind == "char" for kind, _, _ in toks)
    assert any(kind == "string" and "body" in value for kind, value, _ in toks)


def test_unterminated_literal_stops_before_the_newline():
    for quote in "\"'":
        toks = _tokens(f"a = {quote}abc\nint x;")
        assert [(value, line) for _, value, line in toks][-3:] == [("int", 2), ("x", 2), (";", 2)]
        assert toks[2][1] == f"{quote}abc"
    assert logical_lines("s = \"abc\\\nint x;") == ['s = "abc\\', "int x ;"]


# -- the compiled token pattern against the char-by-char oracle ----------------------

PIECES = [
    *"{}()[];,.@=<>!~?:+-*/&|^%", '"', "'", "\\", '"""', "/*", "*/", "//", ">>>=", "...",
    "\r", "\r\n", "\f", "\x0b", "²", "½", "١", "Ⅳ", "\n", " ", "\t", "a", "Z", "_", "$", "0", "7",
    "e", "f", "x", "int", "1.5e3", "0x1F", ".5", "1.",
]
java_like = st.lists(st.sampled_from(PIECES) | st.text(max_size=3), max_size=40).map("".join)
differential = settings(derandomize=True, database=None, max_examples=1500, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


def _agrees(text):
    assert _tokens(text) == lexer_oracle.tokenize(text)
    assert logical_lines(text) == lexer_oracle.logical_lines(text)


@differential
@given(java_like)
def test_pattern_matches_the_oracle_on_java_like_text(text):
    _agrees(text)


@differential
@given(st.text())
def test_pattern_matches_the_oracle_on_any_text(text):
    _agrees(text)


def test_pattern_matches_the_oracle_on_pinned_cases():
    for text in ["½a", "²$", "/*/ x */", "/", "a /", '"a\\', '"""\nbody\n', 'x = """a\nb""" + y;\nz',
                 "/* open\n comment", ".5.f", "1..2", "١٢ x", "Ⅳa", "a\x0bb", "a\r\fb", "a\n\x0b;"]:
        _agrees(text)
    # '½' is numeric but neither a letter nor a digit; '²' is a digit, not a decimal
    assert [(kind, value) for kind, value, _ in _tokens("½a")] == [("sym", "½"), ("word", "a")]
    assert [(kind, value) for kind, value, _ in _tokens("²$")] == [("number", "²"), ("word", "$")]


# -- the per-line memo against the whole-text lexer ----------------------------------

# texts whose raw lines come from one small pool, so a shared memo meets a line
# again, in another text and in either state
pool_line = st.lists(st.sampled_from([*PIECES, "/* c */", "/**/"]) | st.text(max_size=3), max_size=10).map("".join)
texts_sharing_lines = st.builds(
    lambda pool, picks: ["\n".join(pool[k % len(pool)] for k in text) for text in picks],
    st.lists(pool_line, min_size=1, max_size=6),
    st.lists(st.lists(st.integers(0, 5), max_size=10), min_size=2, max_size=4))


def _agree_through_one_memo(texts):
    memo = {}
    for text in texts:
        assert logical_lines(text, memo) == lexer_oracle.regex_logical_lines(text), text


@settings(differential, max_examples=400)  # drawing a list of texts costs more than lexing it
@given(texts_sharing_lines)
def test_line_memo_matches_the_whole_text_lexer(texts):
    _agree_through_one_memo(texts)


def test_line_memo_matches_the_whole_text_lexer_on_pinned_cases():
    texts = [
        "int a; /* start\n still */ int b;\nint c;",  # opened mid-line, tokens after the close
        "int a; /* closed */\nint b; /**/\nint c;",  # closed on the line it opens
        "/* a\n/ b */ c\n/* d\n*/ e\n/* f\n/*/ g */ h",  # continuation lines starting with / and */
        "int a; /* open\n to the end",
        'String s = """\n open\n to the end',
        'x = """\n body /* kept\n """ + y; z\nw',  # tokens after a multi-line text block
        "/* a\n*/ int b;\n",  # the same raw line in both states
        "*/ int b;\n",
        "x\r\ny /* \r\n */ z\r\n",
    ]
    _agree_through_one_memo(texts)
    _agree_through_one_memo(texts[::-1])


def test_texts_sharing_a_memo_share_their_line_strings():
    memo = {}
    first = logical_lines("  int a;\n", memo)
    again = logical_lines("x;\n  int a;\n", memo)
    assert first == ["int a ;"] and again == ["x ;", "int a ;"]
    assert again[1] is first[0]
    # a line inside a block comment is keyed as "/*" + line
    assert logical_lines("/* b\nint a;\n*/ c", memo) == ["c"]
    assert memo["/* b"] == memo["/*int a;"] == (None, True) and memo["/**/ c"] == ("c", False)
