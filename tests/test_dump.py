"""Streaming XML reader: document order, record fields, error reporting."""

import bz2
import gzip
import io

import pytest

from wikivec.ingest.dump import (DumpParseError, TruncatedDumpError, open_dump,
                                 stream_pages)

from conftest import FIXTURE_DUMP


def test_fixture_yields_all_pages_in_document_order(fixture_pages):
    assert [p.page_id for p in fixture_pages] == list(range(1, 26))


def test_record_fields(fixture_pages):
    paris = fixture_pages[0]
    assert paris.title == "Paris"
    assert paris.namespace == 0
    assert paris.redirect_target is None
    assert not paris.is_redirect
    assert "capital of [[France]]" in paris.wikitext

    category = fixture_pages[10]
    assert category.title == "Category:Rivers of France"
    assert category.namespace == 14


def test_redirect_pages_carry_targets(fixture_pages):
    by_id = {p.page_id: p for p in fixture_pages}
    assert by_id[7].redirect_target == "Paris Centre"
    assert by_id[8].redirect_target == "Paris"
    assert by_id[9].is_redirect and by_id[9].redirect_target == "Loop B"
    assert by_id[10].redirect_target == "Loop A"


def test_page_level_id_wins_over_revision_id(fixture_pages):
    # Every fixture revision id is 1000 + page id; none may leak through.
    assert all(p.page_id < 1000 for p in fixture_pages)


def test_open_dump_decompresses_by_suffix(tmp_path, fixture_pages):
    raw = FIXTURE_DUMP.read_bytes()
    for suffix, compress in ((".gz", gzip.compress), (".bz2", bz2.compress)):
        path = tmp_path / f"dump.xml{suffix}"
        path.write_bytes(compress(raw))
        with open_dump(path) as stream:
            pages = list(stream_pages(stream))
        assert [p.page_id for p in pages] == [p.page_id for p in fixture_pages]


def _wrap(pages_xml: str) -> str:
    return f"<mediawiki>{pages_xml}</mediawiki>"


def _page(page_id: int, title: str, text: str = "body") -> str:
    return (f"<page><title>{title}</title><ns>0</ns><id>{page_id}</id>"
            f"<revision><id>{page_id + 500}</id><text>{text}</text></revision></page>")


def test_malformed_xml_yields_prior_pages_then_raises():
    xml = _wrap(_page(1, "A") + _page(2, "B") + "<page><title>C</title></oops>")
    stream = io.BytesIO(xml.encode())
    seen = []
    with pytest.raises(DumpParseError) as err:
        for page in stream_pages(stream):
            seen.append(page.page_id)
    assert seen == [1, 2]
    assert err.value.byte_offset > 0
    assert err.value.line is not None and err.value.column is not None


def test_truncated_stream_raises_truncation_error():
    xml = _wrap(_page(1, "A") + _page(2, "B"))
    cut = xml.encode()[:-len(b"</mediawiki>")]
    seen = []
    with pytest.raises(TruncatedDumpError):
        for page in stream_pages(io.BytesIO(cut)):
            seen.append(page.page_id)
    assert seen == [1, 2]


def test_page_without_id_is_an_error():
    xml = _wrap("<page><title>NoId</title><revision><text>x</text></revision></page>")
    with pytest.raises(DumpParseError):
        list(stream_pages(io.BytesIO(xml.encode())))


@pytest.mark.parametrize("field, page", [
    ("id", "<page><title>A</title><ns>0</ns><id>x1</id></page>"),
    ("ns", "<page><title>A</title><ns>main</ns><id>1</id></page>"),
])
def test_non_numeric_page_field_is_a_parse_error(field, page):
    with pytest.raises(DumpParseError, match=f"<{field}> is not an integer") as err:
        list(stream_pages(io.BytesIO(_wrap(page).encode())))
    assert err.value.byte_offset > 0
    assert "bytes" in str(err.value)


def test_redirect_title_may_come_as_element_text():
    xml = _wrap("<page><title>R</title><id>3</id><redirect>Target Page</redirect>"
                "<revision><text>#REDIRECT [[Target Page]]</text></revision></page>")
    (page,) = stream_pages(io.BytesIO(xml.encode()))
    assert page.redirect_target == "Target Page"


def test_empty_text_element_gives_empty_wikitext():
    xml = _wrap("<page><title>E</title><id>4</id><revision><text/></revision></page>")
    (page,) = stream_pages(io.BytesIO(xml.encode()))
    assert page.wikitext == ""
