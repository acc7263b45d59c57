"""Streaming reader for MediaWiki XML export files.

Pages are yielded one at a time in document order; processed elements are
cleared so memory stays flat regardless of dump size.  Decompression is the
caller's concern; ``open_dump`` is a convenience that sniffs the usual
``.bz2`` / ``.gz`` suffixes.
"""

from __future__ import annotations

import bz2
import gzip
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

_CHUNK = 1 << 16


class DumpParseError(Exception):
    """Malformed XML in the export stream.

    ``byte_offset`` is the number of input bytes consumed when the error
    surfaced (an upper bound at read-chunk granularity); ``line`` and
    ``column`` are the exact expat coordinates when available.
    """

    def __init__(self, message: str, byte_offset: int,
                 line: int | None = None, column: int | None = None) -> None:
        where = f" (within first {byte_offset} bytes"
        if line is not None:
            where += f", line {line}, column {column}"
        super().__init__(message + where + ")")
        self.byte_offset = byte_offset
        self.line = line
        self.column = column


class TruncatedDumpError(DumpParseError):
    """The stream ended before the export document was complete."""


@dataclass(frozen=True, slots=True)
class PageRecord:
    """One ``<page>`` element: id, title, namespace, redirect target, raw wikitext."""

    page_id: int
    title: str
    namespace: int
    redirect_target: str | None
    wikitext: str

    @property
    def is_redirect(self) -> bool:
        return self.redirect_target is not None


def open_dump(path: str | Path) -> BinaryIO:
    """Open a dump file for binary reading, transparently decompressing by suffix."""
    path = Path(path)
    if path.suffix == ".bz2":
        return bz2.open(path, "rb")
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _localname(tag: str) -> str:
    # Tags arrive namespace-qualified as '{uri}name'; match on the local part.
    return tag.rsplit("}", 1)[-1]


def _int_field(child: ET.Element, name: str, byte_offset: int) -> int:
    text = child.text or "0"
    try:
        return int(text)
    except ValueError:
        raise DumpParseError(f"page <{name}> is not an integer: {text!r}",
                             byte_offset) from None


def _build_record(elem: ET.Element, byte_offset: int) -> PageRecord:
    page_id: int | None = None
    title: str | None = None
    namespace = 0
    redirect: str | None = None
    wikitext = ""
    for child in elem:
        name = _localname(child.tag)
        if name == "id" and page_id is None:
            # The page-level id; revision ids live deeper and must not win.
            page_id = _int_field(child, "id", byte_offset)
        elif name == "title":
            title = child.text or ""
        elif name == "ns":
            namespace = _int_field(child, "ns", byte_offset)
        elif name == "redirect":
            redirect = child.get("title") or (child.text or "").strip() or None
        elif name == "revision":
            for sub in child:
                if _localname(sub.tag) == "text":
                    wikitext = sub.text or ""
    if page_id is None or page_id <= 0 or title is None:
        raise DumpParseError("page element lacks a positive <id> or a <title>", byte_offset)
    return PageRecord(page_id, title, namespace, redirect, wikitext)


def stream_pages(dump: BinaryIO) -> Iterator[PageRecord]:
    """Yield every ``<page>`` element of an export stream as a :class:`PageRecord`.

    Pages come out in document order.  Malformed XML raises
    :class:`DumpParseError` after yielding the pages completed before the bad
    token; a truncated but well-formed prefix raises
    :class:`TruncatedDumpError`, likewise after yielding everything complete.
    """
    parser = ET.XMLPullParser(events=("start", "end"))
    root: ET.Element | None = None
    consumed = 0

    def drain() -> Iterator[PageRecord]:
        nonlocal root
        for event, elem in parser.read_events():
            if event == "start":
                if root is None:
                    root = elem
                continue
            if _localname(elem.tag) == "page":
                record = _build_record(elem, consumed)
                elem.clear()
                if root is not None:
                    # Drop completed children kept on the root so memory stays flat.
                    root.clear()
                yield record

    while True:
        chunk = dump.read(_CHUNK)
        if not chunk:
            break
        # feed() queues malformed-XML errors instead of raising them; they
        # surface from read_events() after the still-valid earlier events.
        parser.feed(chunk)
        consumed += len(chunk)
        try:
            yield from drain()
        except ET.ParseError as exc:
            line, column = exc.position
            raise DumpParseError(exc.msg, consumed, line, column) from exc

    try:
        parser.close()
    except ET.ParseError as exc:
        yield from drain()
        line, column = exc.position
        raise TruncatedDumpError(exc.msg, consumed, line, column) from exc
    yield from drain()
