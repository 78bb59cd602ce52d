"""The public surface: every exported name resolves, and the benchmark
scripts and the README code use only exported names, so a name pruned
from ``__all__`` breaks these tests before it breaks the benchmark."""
import re
from pathlib import Path

import pytest

import sniep5 as sn

ROOT = Path(__file__).resolve().parent.parent

# sn.<name> and sniep5.<name> (not a dunder, not a submodule import) and the
# names on a `from sniep5 import ...` line
_ATTR = re.compile(r"(?<!from )\b(?:sn|sniep5)\.(?!__)([A-Za-z_]\w*)")
_FROM = re.compile(r"^from sniep5 import \(?([\w, ]+)", re.M)
_FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def _used_names(text: str) -> set[str]:
    names = set(_ATTR.findall(text))
    for group in _FROM.findall(text):
        names.update(filter(None, map(str.strip, group.split(","))))
    return names


def test_every_exported_name_resolves():
    assert len(set(sn.__all__)) == len(sn.__all__)
    assert [name for name in sn.__all__ if not hasattr(sn, name)] == []


@pytest.mark.parametrize("source", ["bench", "README"])
def test_bench_and_readme_use_only_exported_names(source):
    if source == "bench":
        text = "\n".join(p.read_text() for p in sorted(ROOT.glob("bench/*.py")))
    else:
        text = "\n".join(_FENCED.findall((ROOT / "README.md").read_text()))
    names = _used_names(text)
    assert names, f"no sniep5 names found in {source}"
    assert names <= set(sn.__all__), sorted(names - set(sn.__all__))
