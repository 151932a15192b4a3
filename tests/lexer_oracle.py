"""The Java lexers that ``smellstab.lexer`` replaced, kept as test oracles.

``tokenize`` walks the text one character at a time and returns one
``Token`` per token, as the production lexer did before it returned token
columns; ``logical_lines`` groups its tokens by line.  The differential
tests compare the production lexer's output with these on generated text,
and ``parser_oracle`` and ``bodyscan_oracle`` run on these tokens.

``regex_logical_lines`` runs the production token pattern over the whole
text at once, as ``smellstab.lexer.logical_lines`` did before it lexed line
by line through a memo.
"""

from __future__ import annotations

from typing import NamedTuple

from smellstab.lexer import _token_pattern


class Token(NamedTuple):
    kind: str  # "word" | "number" | "string" | "char" | "sym"
    value: str
    line: int  # 1-based


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


def logical_lines(text: str) -> list[str]:
    by_line: dict[int, list[str]] = {}
    for t in tokenize(text):
        by_line.setdefault(t.line, []).append(t.value)
    return [" ".join(by_line[ln]) for ln in sorted(by_line)]


def regex_logical_lines(text: str) -> list[str]:
    lines: list[str] = []
    line: list[str] = []
    for tok in _token_pattern(text).findall(text):
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
