"""Java tokenizer and logical-line counting.

The lexer drops whitespace and comments (line, block, and javadoc) and keeps
line numbers on every token, which is all the rest of the toolchain needs:
a line is "logical" iff at least one token sits on it.
"""

from __future__ import annotations

from typing import NamedTuple


class Token(NamedTuple):
    kind: str  # "word" | "number" | "string" | "char" | "sym"
    value: str
    line: int  # 1-based


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


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c in "_$"


def tokenize(text: str) -> list[Token]:
    """Tokenize Java source, skipping whitespace and comments."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    line += text.count("\n", i)
                    i = n
                else:
                    line += text.count("\n", i, j + 2)
                    i = j + 2
                continue
        if c == '"':
            if text.startswith('"""', i):
                j = text.find('"""', i + 3)
                end = n if j < 0 else j + 3
                tokens.append(Token("string", text[i:end], line))
                line += text.count("\n", i, end)
                i = end
                continue
        if c in "\"'":
            # an unterminated literal stops before the newline, which is still counted
            j = i + 1
            while j < n and text[j] not in (c, "\n"):
                j += 2 if text[j] == "\\" and text[j + 1:j + 2] != "\n" else 1
            end = min(j + 1 if j < n and text[j] == c else j, n)
            tokens.append(Token("string" if c == '"' else "char", text[i:end], line))
            i = end
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                # stop a trailing '.' that starts a method call on a literal
                if text[j] == "." and not (j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "eEfFdD")):
                    break
                j += 1
            tokens.append(Token("number", text[i:j], line))
            i = j
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_part(text[j]):
                j += 1
            tokens.append(Token("word", text[i:j], line))
            i = j
            continue
        for sym in _MULTI_SYMS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line))
                i += len(sym)
                break
        else:
            tokens.append(Token("sym", c, line))
            i += 1
    return tokens


def logical_loc(text: str) -> int:
    """Count lines that carry at least one token (not blank, not comment-only).

    Total on any input; a part-code part-comment line counts once.
    """
    return len({t.line for t in tokenize(text)})


def logical_lines(text: str) -> list[str]:
    """Canonical text of each logical line, in order.

    Lines are rebuilt from their tokens (single-space joined), so the history
    miner's churn diffs and rename-similarity scores ignore indentation,
    spacing, and comments entirely: only token-level edits count as change.
    """
    by_line: dict[int, list[str]] = {}
    for t in tokenize(text):
        by_line.setdefault(t.line, []).append(t.value)
    return [" ".join(by_line[ln]) for ln in sorted(by_line)]

