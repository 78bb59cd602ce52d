"""The public surface: every exported name resolves, the benchmark scripts
and the README code use only exported names, so a name pruned from
``__all__`` breaks these tests before it breaks the benchmark, and the
README's Python blocks run as written."""
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
_PYTHON = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


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


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader would paste them
    blocks = _PYTHON.findall((ROOT / "README.md").read_text())
    assert blocks, "no python blocks in the README"
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_value_records_keep_their_named_tuple_behavior():
    # the three records are built with tuple.__new__, not their __new__
    s = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
    row = next(iter(sn.sample_region(6, [0.1])))
    cases = [
        (sn.elem_syms(s), sn.ElemSyms, ("e1", "e2", "e3", "e4", "e5")),
        (s.uvwr, sn.PatternAScalars, ("u", "v", "w", "r")),
        (row, sn.RegionSample, sn.CSV_HEADER.split(",")),
    ]
    for value, cls, fields in cases:
        assert type(value) is cls
        plain = tuple(value)
        assert value == plain and plain == value
        assert hash(value) == hash(plain)
        assert list(value._asdict()) == list(fields)
        assert tuple(value._asdict().values()) == plain
        assert [getattr(value, f) for f in fields] == list(plain)
        assert cls(*plain) == value


_SRC = "\n".join(p.read_text() for p in sorted(ROOT.glob("src/sniep5/*.py")))


@pytest.mark.parametrize("piece", [
    # each gate's check names, written once and shared
    '"min_above_negated_perron"', '"trace_nonnegative"', '"third_exceeds_trace"',
    '"r_nonnegative"', '"root_in_range"', '"g_is_a_root"', '"g_in_range"',
    # the unit-scale fast test and the builders' scale-back
    "l5 > -2.0", "math.ldexp(x, k) for x in row",
])
def test_each_piece_of_the_pattern_layer_is_written_once(piece):
    assert _SRC.count(piece) == 1, piece
