from smellstab.lexer import logical_lines, logical_loc, tokenize


def test_empty_region_is_zero():
    assert logical_loc("") == 0


def test_blank_and_comment_lines_excluded():
    text = "int a;\n\nint b;\n// comment only\nint c;\n\n/* block */\n"
    assert logical_loc(text) == 3


def test_mixed_code_comment_line_counts_once():
    assert logical_loc("int x = 1; // init") == 1


def test_block_comment_spanning_lines():
    text = "int a;\n/* one\n   two\n   three */\nint b;\n"
    assert logical_loc(text) == 2


def test_javadoc_excluded():
    text = "/** doc\n * @param x\n */\nvoid m() {}\n"
    assert logical_loc(text) == 1


def test_string_containing_comment_markers_is_code():
    text = 'String s = "// not a comment";\n'
    assert logical_loc(text) == 1


def test_comment_after_code_then_code_line():
    text = "int a; /* start\n still comment */ int b;\n"
    # line 2 has the token `int b;` after the comment closes
    assert logical_loc(text) == 2


def test_tokenize_line_numbers():
    toks = tokenize("a\nb\n\nc")
    assert [(t.value, t.line) for t in toks] == [("a", 1), ("b", 2), ("c", 4)]


def test_logical_lines_normalize_whitespace_and_comments():
    a = logical_lines("int x = 1;  // note\n\n   int y  =  2;\n")
    b = logical_lines("int x = 1;\nint y = 2; /* other note */\n")
    assert a == b == ["int x = 1 ;", "int y = 2 ;"]


def test_char_and_text_block_literals():
    text = "char c = '{';\nString s = \"\"\"\nbody { }\n\"\"\";\n"
    toks = tokenize(text)
    assert any(t.kind == "char" for t in toks)
    assert any(t.kind == "string" and "body" in t.value for t in toks)


def test_unterminated_literal_stops_before_the_newline():
    for quote in "\"'":
        toks = tokenize(f"a = {quote}abc\nint x;")
        assert [(t.value, t.line) for t in toks][-3:] == [("int", 2), ("x", 2), (";", 2)]
        assert toks[2].value == f"{quote}abc"
    assert logical_lines("s = \"abc\\\nint x;") == ['s = "abc\\', "int x ;"]
