"""The README's library example runs, and every name its "Key entry
points" list gives is in its module's __all__."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", LIBRARY, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().strip()


def test_key_entry_points_are_public():
    points = LIBRARY.split("Key entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for bullet in re.split(r"^- ", points, flags=re.M)[1:]:
        module, *names = re.findall(r"`([A-Za-z_]\w*)`", bullet)
        listed[module] = names
    assert "channel" in listed and "syslevel" in listed and all(listed.values())
    missing = [
        f"{module}.{name}"
        for module, names in listed.items()
        for name in names
        if name not in importlib.import_module(f"risnoma.{module}").__all__
    ]
    assert missing == []
