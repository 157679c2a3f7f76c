"""Built-in example graphs.

Four fixtures ship as text files under ``edgering/data`` so the graph text
format is exercised end to end and a directory override can substitute
edited copies; the rest are built on demand from the cactus constructor.
"""

from __future__ import annotations

from pathlib import Path

from importlib import resources

from .graph_core import Graph, build_triangular_cactus
from .io import parse_graph_text

_FILE_NAMES = ("bowtie", "t1min", "t2min", "friend3")


def _triangle() -> Graph:
    return Graph(("v1", "v2", "v3"), (("v1", "v2"), ("v1", "v3"), ("v2", "v3")))


def _bowtie() -> Graph:
    return Graph(
        ("v1", "v2", "v3", "v4", "v5"),
        (
            ("v1", "v2"),
            ("v1", "v3"),
            ("v2", "v3"),
            ("v1", "v4"),
            ("v1", "v5"),
            ("v4", "v5"),
        ),
    )


_BUILDERS = {
    "triangle": _triangle,
    "bowtie": _bowtie,
    "friend3": lambda: build_triangular_cactus(triangles=3, pendants=(0,) * 6),
    "cac3": lambda: build_triangular_cactus(triangles=1, pendants=(1, 1)),
    "t1min": lambda: build_triangular_cactus(triangles=2, pendants=(1, 0, 1, 0)),
    "t2min": lambda: build_triangular_cactus(
        triangles=3, pendants=(1, 0, 1, 0, 0, 0)
    ),
    "cact4a": lambda: build_triangular_cactus(
        triangles=4, pendants=(1, 0, 1, 0, 1, 0, 0, 0)
    ),
    "cact4b": lambda: build_triangular_cactus(
        triangles=4, pendants=(1, 0, 1, 0, 1, 0, 1, 0)
    ),
}


def names() -> tuple:
    """All fixture names, file-backed ones first."""
    ordered = list(_FILE_NAMES) + [n for n in _BUILDERS if n not in _FILE_NAMES]
    return tuple(ordered)


def build(name: str) -> Graph:
    """Construct a fixture directly, bypassing the shipped data files."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(names())}"
        )
    return _BUILDERS[name]()


def load(name: str, directory: str | Path | None = None) -> Graph:
    """Load a fixture. File-backed fixtures are read from the package data
    directory, or from `directory` when given (the substitution hook used
    to demonstrate that verification actually checks its inputs); every
    other name goes to `build`."""
    if name not in _FILE_NAMES:
        return build(name)
    if directory is not None:
        text = (Path(directory) / f"{name}.graph").read_text()
    else:
        text = resources.files("edgering").joinpath("data", f"{name}.graph").read_text()
    return parse_graph_text(text)
