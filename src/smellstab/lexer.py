"""Java tokenizer and logical-line counting.

The lexer drops whitespace and comments (line, block, and javadoc) and keeps
line numbers on every token, which is all the rest of the toolchain needs:
a line is "logical" iff at least one token sits on it.  ``tokenize`` (for
analysis) and ``logical_lines`` (for mining) both split the text with one
compiled pattern, so the two stages see the same tokens.

``tokenize`` lexes a file whole.  ``logical_lines`` lexes it one raw line at a
time through a memo that a caller may share across texts, so a line met again
in any file is not lexed again.  A line starts in one of two states: normal,
or inside a block comment, which it lexes as ``"/*" + line``; the memo keeps
each lexed string's logical line and whether it ends inside a comment.  A
text block that runs past its line ends the walk, and the rest of the text
is lexed whole.

``tokenize`` returns a file's tokens as two columns, not one object per
token: the values as a tuple of interned strings and their lines as an
``array('I')``.  A method body, an initializer block or a field initializer
is a ``TokenSpan`` window over those columns.  A token's kind follows from
its value (``kind_of``).
"""

from __future__ import annotations

import functools
import re
import sys
from array import array


JAVA_KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    var record yield sealed permits non-sealed
    """.split()
)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}
)

# Multi-char operators, longest first.  '<' and '>' are always emitted as
# single chars so the parser can read generic argument lists; '>>' etc. never
# matter to anything downstream.
_MULTI_SYMS = [
    ">>>=", "<<=", "...", "->", "::", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
]


# One alternation of the token grammar, tried in this order at each position:
# a newline (with the indentation after it), a line comment, a block comment,
# a text block (both run to the end when unterminated), a string and a char
# literal (an escape takes the next char unless it is a newline; an
# unterminated literal stops before the newline), a number, an identifier,
# the multi-char operators, and any other non-blank char.  Blanks (" \t\r\f")
# between tokens match nothing and are skipped.  Letters and digits follow
# ``str.isalpha`` and ``str.isdigit``, which ``\w`` and ``\d`` do not: the
# two classes are parameters so ASCII text needs no Unicode tables.
def _compile(digit: str, word_start: str) -> re.Pattern[str]:
    return re.compile("|".join([
        r"\n[ \t\r\f]*",
        r"//[^\n]*",
        r"/\*[\s\S]*?(?:\*/|\Z)",
        r'"""[\s\S]*?(?:"""|\Z)',
        r'"[^"\\\n]*(?:\\[^\n]?[^"\\\n]*)*"?',
        r"'[^'\\\n]*(?:\\[^\n]?[^'\\\n]*)*'?",
        rf"(?:{digit}|\.(?={digit}))(?:\w|\.(?={digit}|[eEfFdD]))*",
        rf"{word_start}[\w$]*",
        *map(re.escape, _MULTI_SYMS),
        r"[^ \t\r\f\n]",
    ]))


_ASCII_TOKEN = _compile("[0-9]", "[A-Za-z_$]")


@functools.cache
def _unicode_token() -> re.Pattern[str]:
    """The token pattern for any text, built on the first non-ASCII one."""
    codec = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
    every = array("I", range(sys.maxunicode + 1)).tobytes().decode(codec, "surrogatepass")
    # \w is str.isalnum() or "_", so its chars that are not letters are numeric
    numeric = "".join(c for c in re.findall(r"[^\W_]", every) if not c.isalpha())
    digits = "".join(c for c in numeric if c.isdigit())
    return _compile(f"[{digits}]", rf"(?:[^\W{numeric}]|\$)")


def _token_pattern(text: str) -> re.Pattern[str]:
    return _ASCII_TOKEN if text.isascii() else _unicode_token()


class _KindByFirstChar(dict):
    """A token's kind by its first char, filled in one distinct char at a time.

    Only a token that starts with '.' needs a second look (``kind_of``), so a
    hot loop tests for a word with ``KIND_BY_FIRST_CHAR[v[0]] == "word"``
    and calls no Python function.
    """

    def __missing__(self, c: str) -> str:
        if c.isdigit():
            kind = "number"
        elif c.isalpha() or c in "_$":
            kind = "word"
        elif c == '"':
            kind = "string"
        else:
            kind = "char" if c == "'" else "sym"
        self[c] = kind
        return kind


KIND_BY_FIRST_CHAR = _KindByFirstChar()


def kind_of(value: str) -> str:
    """``"word"``, ``"number"``, ``"string"``, ``"char"`` or ``"sym"``."""
    if value[0] == "." and value not in (".", "..."):
        return "number"  # .5
    return KIND_BY_FIRST_CHAR[value[0]]


class TokenSpan:
    """The tokens ``start:end`` of one file, read through its shared columns.

    ``values`` and ``lines`` are the whole file's columns, never a copy, so
    a span costs one small object whatever its length.
    """

    __slots__ = ("values", "lines", "start", "end")

    def __init__(self, values: tuple[str, ...], lines: array, start: int, end: int):
        self.values = values
        self.lines = lines
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return self.end - self.start

    def line_count(self) -> int:
        """How many distinct lines the span's tokens sit on."""
        return len(set(memoryview(self.lines)[self.start : self.end]))

    def __repr__(self) -> str:
        return f"TokenSpan({self.values[self.start:self.end]!r})"


def tokenize(text: str) -> TokenSpan:
    """Tokenize Java source, skipping whitespace and comments, into a span over the whole file."""
    values: list[str] = []
    append = values.append
    lines = array("I")
    add_line = lines.append
    intern = sys.intern
    line = 1
    for tok in _token_pattern(text).findall(text):
        c = tok[0]
        if c == "\n":
            line += 1
            continue
        if c == "/" and tok[:2] in ("//", "/*"):
            line += tok.count("\n")
            continue
        append(intern(tok))
        add_line(line)
        if c == '"':  # a text block may hold newlines
            line += tok.count("\n")
    return TokenSpan(tuple(values), lines, 0, len(values))


def logical_lines(text: str, memo: dict[str, tuple[str | None, bool]] | None = None) -> list[str]:
    """Canonical text of each logical line, in order.

    Lines are rebuilt from their tokens (single-space joined), so the history
    miner's churn diffs and rename-similarity scores ignore indentation,
    spacing, and comments entirely: only token-level edits count as change.
    A token belongs to the line it starts on, as in ``tokenize``.

    ``memo`` maps each string lexed to its logical line (None without a
    token) and whether it ends inside a block comment.  A line inside a block
    comment is lexed as ``"/*" + line``: the opener's ``*`` cannot close the
    comment with a ``/`` that starts the line, so the two read alike.  Texts
    that share a memo share its strings, and each distinct line is lexed once.
    """
    if memo is None:
        memo = {}
    pattern = _token_pattern(text)
    lines: list[str] = []
    append = lines.append
    in_comment = False
    raws = text.split("\n")
    for i, raw in enumerate(raws):
        key = "/*" + raw if in_comment else raw
        known = memo.get(key)
        if known is None:
            tokens = pattern.findall(key)
            last = tokens[-1] if tokens else ""  # an unclosed comment or text block runs to the end
            if last[:3] == '"""' and not _closes(last, '"""'):  # the rest is lexed whole
                rest = "\n".join(raws[i:])
                lines += _group(pattern.findall("/*" + rest if in_comment else rest))
                return lines
            found = _group(tokens)
            known = memo[key] = (found[0] if found else None, last[:2] == "/*" and not _closes(last, "*/"))
        line, in_comment = known
        if line is not None:
            append(line)
    return lines


def _closes(token: str, mark: str) -> bool:
    """Whether a block comment or text block token ends with its closing ``mark``.

    Its opener is as long as the mark, so ``/*/`` is still open.
    """
    return len(token) >= 2 * len(mark) and token.endswith(mark)


def _group(tokens: list[str]) -> list[str]:
    """The tokens' logical lines: a newline ends a line, and so does a comment or text block that holds one."""
    lines: list[str] = []
    line: list[str] = []
    for tok in tokens:
        c = tok[0]
        if c == "\n":
            ends_line = True
        elif c == "/" and tok[:2] in ("//", "/*"):
            ends_line = "\n" in tok
        else:
            line.append(tok)
            ends_line = c == '"' and "\n" in tok  # a text block
        if ends_line and line:
            lines.append(" ".join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    return lines
