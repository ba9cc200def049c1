import re
from pathlib import Path

import treepart

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in treepart.__all__:
        assert hasattr(treepart, name), name
    assert len(set(treepart.__all__)) == len(treepart.__all__)


def test_readme_lower_level_list_is_exported():
    text = README.read_text(encoding="utf-8")
    start = text.index("Lower-level pieces are exported too:")
    # The sentence ends at a period before whitespace; the dots inside a
    # dotted name such as `treepart.spantree.tree_paths` do not end it.
    end = re.compile(r"\.\s").search(text, start).start()
    listed = re.findall(r"`(\w+)`", text[start:end])
    assert listed[0] == "sample_bft" and "check_connected" in listed
    assert not set(listed) - set(treepart.__all__)
