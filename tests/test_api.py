"""The public surface: the README's library examples and eods.__all__."""

import os
import re

import eods

README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


def _quick_start_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # the blocks build on each other, so they share one namespace
    monkeypatch.chdir(tmp_path)
    blocks = _quick_start_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert namespace["fit"].ci_low <= namespace["fit"].beta_y


def test_all_names_resolve():
    for name in eods.__all__:
        assert hasattr(eods, name), name
        # pytest would collect a public test* function as a test
        assert not name.startswith("test"), name
