"""Documentation cites only files that exist.

Docstrings in ``src/`` and the README point readers at Markdown documents by
name; a name whose file is not in the repository sends them nowhere.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: File names the experiment-report CLI examples write to, not documents.
OUTPUT_EXAMPLES = {"out.md", "report.md"}

MD_NAME = re.compile(r"[A-Za-z0-9_./-]+\.md\b")


def cited_names() -> dict[str, set[str]]:
    """``*.md`` name -> the files (relative to the root) that cite it."""
    sources = [ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py"))]
    cited: dict[str, set[str]] = {}
    for source in sources:
        for name in MD_NAME.findall(source.read_text(encoding="utf-8")):
            if name not in OUTPUT_EXAMPLES:
                cited.setdefault(name, set()).add(str(source.relative_to(ROOT)))
    return cited


def test_every_cited_markdown_file_exists():
    documents = {
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    }
    basenames = {Path(document).name for document in documents}
    missing = {
        name: sorted(sources)
        for name, sources in cited_names().items()
        if name not in documents and name not in basenames
    }
    assert not missing, f"documentation cites Markdown files that do not exist: {missing}"
