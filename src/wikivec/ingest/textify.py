"""Length-preserving wikitext masking and the corpus tokenizer.

Masking replaces markup with spaces instead of deleting it, so anchor spans
recorded against the raw body stay valid.  Rendering only ever reads the
masked text BETWEEN anchor spans; anchor content comes from the spans
themselves.  Markup that is pure punctuation (heading '=', quotes, list
markers, stray brackets) needs no masking: the tokenizer splits on it.
"""

from __future__ import annotations

import re

# A token is letters/digits possibly joined by internal hyphens; underscores
# and all other punctuation split.  Keeps '3rd', 'state-of-the-art'.
TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")

_COMMENT = re.compile(r"<!--.*?(?:-->|\Z)", re.DOTALL)
_SKIP_TAG = re.compile(
    r"<\s*(nowiki|ref|references|math|source|syntaxhighlight|gallery|"
    r"timeline|pre|score|code|hiero|imagemap)\b[^<>]*?/\s*>"
    r"|<\s*(nowiki|ref|references|math|source|syntaxhighlight|gallery|"
    r"timeline|pre|score|code|hiero|imagemap)\b[^<>]*?>.*?<\s*/\s*\2\s*>",
    re.DOTALL | re.IGNORECASE,
)
_URL = re.compile(r"(?:https?|ftp)://[^\s\[\]<>\"{}|]+", re.IGNORECASE)
_HTML_TAG = re.compile(r"</?[A-Za-z][^<>\n]*?>")
_ENTITY = re.compile(r"&(?:[A-Za-z][A-Za-z0-9]*|#[0-9]+|#x[0-9A-Fa-f]+);")
_MAGIC_WORD = re.compile(r"__[A-Z]+__")
_TEMPLATE_OPEN = re.compile(r"\{\{")
_TABLE_OPEN = re.compile(r"\{\|")
_FILE_OPEN = re.compile(r"\[\[\s*(?:File|Image)\s*:", re.IGNORECASE)


def _spaces(match: re.Match[str]) -> str:
    return " " * len(match.group(0))


def matching_close(text: str, start: int, open_mark: str, close_mark: str) -> int:
    """Index just past the ``close_mark`` balancing the ``open_mark`` at ``start``.

    Nesting-aware; returns -1 when the opener is never closed.  Jumps from
    marker to marker with ``str.find``, which needs that no opener can start
    inside a closer (true of ``[[``/``]]``, ``{{``/``}}`` and ``{|``/``|}``).
    """
    depth = 0
    pos = start
    next_open = text.find(open_mark, pos)
    while True:
        close = text.find(close_mark, pos)
        if close < 0:
            return -1
        if 0 <= next_open <= close:
            depth += 1
            pos = next_open + len(open_mark)
            next_open = text.find(open_mark, pos)
            continue
        depth -= 1
        pos = close + len(close_mark)
        if depth == 0:
            return pos


def _mask_balanced(text: str, opener: re.Pattern[str], open_mark: str,
                   close_mark: str) -> str:
    """Blank each balanced region that ``opener`` starts, up to its matching close.

    Unbalanced openers are left in place (their braces die in the tokenizer
    anyway); this keeps a stray marker from eating the rest of the page.
    """
    out: list[str] = []
    pos = 0
    while match := opener.search(text, pos):
        start = match.start()
        end = matching_close(text, start, open_mark, close_mark)
        if end < 0:
            out.append(text[pos:start + len(open_mark)])
            pos = start + len(open_mark)
            continue
        out.append(text[pos:start])
        out.append(" " * (end - start))
        pos = end
    out.append(text[pos:])
    return "".join(out)


def mask_markup(text: str) -> str:
    """Return an equal-length copy of ``text`` with non-content markup blanked."""
    text = _COMMENT.sub(_spaces, text)
    text = _SKIP_TAG.sub(_spaces, text)
    text = _mask_balanced(text, _TEMPLATE_OPEN, "{{", "}}")
    text = _mask_balanced(text, _TABLE_OPEN, "{|", "|}")
    text = _mask_balanced(text, _FILE_OPEN, "[[", "]]")
    text = _URL.sub(_spaces, text)
    text = _HTML_TAG.sub(_spaces, text)
    text = _ENTITY.sub(_spaces, text)
    text = _MAGIC_WORD.sub(_spaces, text)
    return text


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; internal hyphens survive."""
    return TOKEN_RE.findall(text.lower())
