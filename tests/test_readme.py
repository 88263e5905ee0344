"""The public surface: every name ``detmod`` exports is documented."""

import re
import types
from pathlib import Path

import detmod

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_appears_in_the_readme():
    text = README.read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))
    missing = [name for name in detmod.__all__
               if not isinstance(getattr(detmod, name), types.ModuleType)
               and not re.search(rf"\b{re.escape(name)}\b", code)]
    assert missing == []
