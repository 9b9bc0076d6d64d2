"""Generated doc tables stay in sync with the code that renders them.

``rules_table()`` renders the live lint registry into
docs/static_analysis.md, and ``markdown_table()`` renders the chaos
scenario rows into docs/fault_model.md; each doc embeds the output
between ``<name>-table:begin``/``end`` markers.  These tests fail
whenever a rule or a scenario row changes without regenerating its
block — the doc can then be fixed by pasting the expected table printed
in the assertion diff.
"""

from pathlib import Path

import repro
import repro.analysis.flow  # noqa: F401 -- flow-tier rules register on import
from repro.analysis.lint import RULES, rules_table
from repro.resilience.chaos import markdown_table

DOCS = Path(repro.__file__).resolve().parents[2] / "docs"
DOC = DOCS / "static_analysis.md"


def embedded_table(doc: Path, name: str) -> str:
    begin, end = f"<!-- {name}-table:begin -->", f"<!-- {name}-table:end -->"
    text = doc.read_text()
    assert begin in text and end in text, f"markers missing from {doc}"
    return text.split(begin, 1)[1].split(end, 1)[0].strip()


def test_doc_rule_table_matches_registry():
    assert embedded_table(DOC, "rules") == rules_table().strip()


def test_doc_chaos_table_matches_scenarios():
    assert embedded_table(DOCS / "fault_model.md", "chaos") == markdown_table().strip()


def test_doc_mentions_every_rule_id():
    text = DOC.read_text()
    for rule_id in RULES:
        assert rule_id in text, f"{rule_id} undocumented in {DOC}"
