#!/usr/bin/env python3
"""Docs-drift gate: docs/PROTOCOL.md must cover what the code ships.

The spec is normative, so the failure mode to guard against is not a
wrong sentence (tests cannot read prose) but a *missing* one: somebody
adds a QueryKind, an error code, or a wire-format constant and forgets
the spec. This script scrapes the authoritative tables, switch
statements and declarations straight out of the sources:

- query-kind wire names from ``kKinds`` in serve/schema.hpp;
- error-code names from ``errorCodeName`` in common/result.cpp;
- wire constants (``kWire*``) and ``WireMsg`` member names from
  serve/wire.hpp;

and fails (exit 1, one line per omission) if docs/PROTOCOL.md does not
mention every single one. Names are substring checks: the spec can say
anything it likes about a name, but it must say *something*.

The request and response field tables (``kRequestFields`` and
``kResponseFields`` in serve/schema.hpp, JSON key and wire tag per
field) are held to the spec's "Request tags" and "Response tags"
tables: every field needs a ``| tag | `key` |`` row with its tag.
Run from the repo root (ci.sh does).
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        return f.read()


def switch_body(source, function_name):
    """The text between a function's ``switch`` and its closing brace."""
    start = source.index(function_name)
    start = source.index("switch", start)
    end = source.index("\n}", start)
    return source[start:end]


def table_body(source, name):
    """The text of a ``name[] = { ... };`` initializer."""
    start = source.index(name + "[] = {")
    return source[start:source.index("};", start)]


def query_kinds():
    body = table_body(read("src/serve/schema.hpp"), "kKinds")
    kinds = re.findall(r'\{"([a-z_]+)", KindClass::', body)
    assert kinds, "no query kinds scraped from schema.hpp"
    return kinds


def schema_fields(table):
    """(json key, wire tag) rows of a field table in serve/schema.hpp
    (a request row may end in its key flag)."""
    body = table_body(read("src/serve/schema.hpp"), table)
    rows = [(key, int(tag))
            for key, tag in re.findall(r'\{"(\w+)", (\d+)(?:, \w+)?\}', body)]
    assert rows, "no fields scraped from " + table
    return rows


def spec_tag_rows(spec, heading):
    """{field: tag} from the ``| tag | field | ...`` table after a
    bold heading such as **Request tags**."""
    start = spec.index(heading)
    rows = {}
    for line in spec[start:].split("\n")[1:]:
        if rows and not line.startswith("|"):
            break  # End of the first table after the heading.
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if len(cells) >= 2 and cells[0].isdigit():
            rows[cells[1]] = int(cells[0])
    return rows


def tag_table_drift(spec):
    missing = []
    for table, heading in (("kRequestFields", "**Request tags**"),
                           ("kResponseFields", "**Response tags**")):
        documented = spec_tag_rows(spec, heading)
        for key, tag in schema_fields(table):
            got = documented.get(key)
            if got is None:
                missing.append("%s row for %s (tag %d)" % (heading, key, tag))
            elif got != tag:
                missing.append("%s row for %s with tag %d (it says %d)"
                               % (heading, key, tag, got))
    return missing


def error_codes():
    body = switch_body(read("src/common/result.cpp"), "errorCodeName")
    codes = re.findall(r"case ErrorCode::(\w+)", body)
    assert codes, "no error codes scraped from result.cpp"
    return codes


def wire_names():
    header = read("src/serve/wire.hpp")
    names = re.findall(r"constexpr \w+(?:\s\w+)? (kWire\w+)", header)
    assert names, "no kWire constants scraped from wire.hpp"
    enum = header[header.index("enum class WireMsg"):]
    enum = enum[: enum.index("};")]
    members = re.findall(r"^\s+(\w+) = 0x", enum, re.MULTILINE)
    assert members, "no WireMsg members scraped from wire.hpp"
    return names + ["WireMsg::" + m for m in members]


def main():
    spec = read("docs/PROTOCOL.md")
    missing = []
    for kind in query_kinds():
        # Query kinds appear quoted, the way a request line spells them.
        if '"%s"' % kind not in spec:
            missing.append('query kind "%s"' % kind)
    for code in error_codes():
        if code not in spec:
            missing.append("error code %s" % code)
    for name in wire_names():
        if name not in spec:
            missing.append("wire name %s" % name)
    missing += tag_table_drift(spec)
    if missing:
        for item in missing:
            print("check_docs: docs/PROTOCOL.md does not mention",
                  item, file=sys.stderr)
        return 1
    print("check_docs: docs/PROTOCOL.md covers every query kind, "
          "error code, wire name, and field tag")
    return 0


if __name__ == "__main__":
    sys.exit(main())
