"""Local shortest-path primitives over :class:`repro.graphs.generator.Graph`.

*Settle order* is the order of textbook Dijkstra with a binary heap of
``(dist, vertex)``: each step settles the smallest pair among the vertices
discovered so far, and a vertex's parent is the first settled vertex whose
relaxation gave its final distance.  Every vertex-graph search in the
program runs one compiled kernel that is exactly that search
(``_settle.c``, over ``Graph.csr()``), through one of two entry points:

* :func:`settle_below` — the whole ball below a distance budget, from one
  source, with the Lemma 5.5 ``through`` and pass-through rules and the
  stop value.  It serves the budgeted searches: BSSR's modified Dijkstra
  (which ``_bssr.c`` calls in C, and Table 7's first scan through this
  wrapper), the Algorithm 4 range filter and the per-endpoint scans of the
  Spark pipeline's levels (``repro.core.skysr_spark.extend``).
* :func:`settle_to` — the target vertices only, in settle order, from any
  number of sources, up to a limit or a stop vertex.  It serves the
  searches that want the next *matching* PoIs: NNinit's per-position
  searches, the Lemma 5.9 leg minima of ``repro.core.bounds``, the PNE
  neighbour lists of ``repro.baselines.osr`` and route scoring.

:func:`dijkstra` — one full distance row, from :func:`settle_below` with
no budget, forwards or on ``Graph.reverse`` — serves brute force and the
§6 destination leg.

Each graph gets one search workspace on its first search: the CSR bound
to the kernel, a distance array that is all-``inf`` between calls and the
output buffers, as numpy arrays, and a heap and marked-record buffer that
the kernel grows itself (from 1,024 pairs and 256 records, doubling) with
``PyMem_RawRealloc``, so ``tracemalloc`` sees all of it.  A search then
allocates nothing but its result, unless a buffer must grow, and costs
what it visits, not O(n).  The workspace is freed with its graph and is
never pickled with it; a lock held around each kernel call keeps two
threads out of one workspace.

The kernel is one cffi extension module compiled from ``_kernel.h`` (its
types and entry points, which are also the cdef), ``_settle.c`` (the
searches), ``_skyline.c`` (the skyline frontier of
:class:`repro.core.dominance.SkylineSet`) and ``_bssr.c`` (BSSR's
branch-and-bound loop, :func:`repro.core.bssr.bssr`).  It is named after a
hash of those sources, the flags and the macros; the first import builds
it with the system C compiler and publishes it next to this file in place
of any older build, and later imports only load it.  ``ffi`` and ``lib``
are its handles.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import tempfile
import threading
from collections.abc import Container, Iterable, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.graphs.generator import Graph

INF = float("inf")

_HERE = Path(__file__).resolve().parent
# The kernel's sources: the header, whose declarations are also the cdef,
# then the C files, compiled in this order as one unit.
_SOURCES = [_HERE / "_kernel.h", _HERE / "_settle.c", _HERE / "_skyline.c", _HERE / "_bssr.c"]
# No -ffast-math or -march: every double must be the one Python computes.
_CFLAGS = ["-O2", "-ffp-contract=off"]
# The kernel allocates through PyMem_RawMalloc, which the limited API of
# Python 3.11 does not declare.
_MACROS = [("_CFFI_NO_LIMITED_API", None)]


def _cdef() -> str:
    """The header without its preprocessor lines: the types and entry points
    cffi exposes."""
    lines = _SOURCES[0].read_text().splitlines()
    return "\n".join(line for line in lines if not line.lstrip().startswith("#"))


def _module_name() -> str:
    """``_settle_`` and a hash of everything the build reads: each source,
    the cdef, the flags and the macros."""
    digest = hashlib.sha256()
    for part in [*(p.read_bytes() for p in _SOURCES), _cdef(), repr(_CFLAGS), repr(_MACROS)]:
        digest.update(part if isinstance(part, bytes) else part.encode())
        digest.update(b"\0")
    return f"_settle_{digest.hexdigest()[:16]}"


def _build(name: str, directory: Path) -> None:
    """Compile the kernel as extension module ``repro.graphs.<name>``, move
    it into ``directory`` and delete the older ``_settle_*`` builds there.
    Raises ``ImportError`` when cffi or a working C compiler is missing."""
    needs = "repro.graphs.dijkstra builds its compiled kernel from _settle.c and its siblings with cffi and a C compiler"
    try:
        import cffi
    except ImportError as e:
        raise ImportError(f"{needs}, and cffi is missing: {e}") from e
    ffi = cffi.FFI()
    ffi.cdef(_cdef())
    ffi.set_source(
        f"repro.graphs.{name}",
        "".join(f'#include "{p.name}"\n' for p in _SOURCES if p.suffix == ".c"),
        include_dirs=sorted({str(p.parent) for p in _SOURCES}),
        define_macros=_MACROS,
        extra_compile_args=_CFLAGS,
    )
    try:
        with tempfile.TemporaryDirectory() as tmp:
            built = ffi.compile(tmpdir=tmp)
            published = directory / Path(built).name
            os.replace(built, published)
        for stale in directory.glob("_settle_*.so"):
            if stale != published:
                stale.unlink(missing_ok=True)
    except (cffi.VerificationError, ImportError, OSError) as e:
        raise ImportError(f"{needs}, and the build failed: {e}") from e


def _load():
    name = _module_name()
    try:
        return importlib.import_module(f"repro.graphs.{name}")
    except ModuleNotFoundError:
        _build(name, _HERE)
        importlib.invalidate_caches()
        return importlib.import_module(f"repro.graphs.{name}")


# The compiled module's handles; repro.core.dominance and repro.core.bssr
# call its frontier and branch-and-bound entry points through them too.
_mod = _load()
ffi, lib = _mod.ffi, _mod.lib
_NULL = ffi.NULL
# The record layout of the kernel's `marked_t` struct.
_MARKED = np.dtype([("dist", np.float64), ("vertex", np.int64), ("passed", np.float64), ("mark", np.float64)])
_BYTES = frozenset("?Bbc")  # buffer formats of one byte per entry: bool, uint8, int8, bytes


def _checked(per_vertex, n: int, formats: Container[str] = _BYTES):
    """``per_vertex`` itself, once it is a contiguous buffer of ``n``
    entries, one per vertex, in one of the struct ``formats``."""
    view = memoryview(per_vertex)
    if view.format not in formats or view.shape != (n,) or not view.c_contiguous:
        raise ValueError(f"expected {n} contiguous entries of format {sorted(formats)}, one per vertex")
    return per_vertex


def _raise_if_failed(count: int) -> int:
    if count == -2:
        raise MemoryError("the shortest-path kernel could not grow its buffers")
    return count


class _Workspace:
    """One graph's search buffers and the kernel's ``workspace`` struct
    that points into them and into the graph's CSR; ``lock`` is held
    around each kernel call.  The heap and the marked records are the
    kernel's own, grown on demand and freed with the struct."""

    def __init__(self, graph: Graph) -> None:
        n = graph.n_vertices
        csr = dict(zip(("indptr", "indices", "weights"), graph.csr()))
        self._buffers = {
            "dist": np.full(n, INF),
            "carry": np.empty(n),
            "touched": np.empty(n, dtype=np.int64),
            "out_dist": np.empty(n),
            "out_vertex": np.empty(n, dtype=np.int64),
        }
        self.out_dist, self.out_vertex = self._buffers["out_dist"], self._buffers["out_vertex"]
        self.c = c = ffi.gc(ffi.new("workspace *"), lib.workspace_release)
        c.n = n
        self._views = []  # each from_buffer view keeps its array alive while the struct points into it
        for name, array in {**csr, **self._buffers}.items():
            view = ffi.from_buffer(array)
            self._views.append(view)
            setattr(c, name, ffi.cast(ffi.typeof(getattr(c, name)), view))
        self.lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """The bytes the workspace holds now; the CSR is the graph's."""
        c = self.c
        grown = c.heap_cap * ffi.sizeof("pair") + c.marked_cap * ffi.sizeof("marked_t")
        return sum(a.nbytes for a in self._buffers.values()) + grown


def workspace(graph: Graph) -> _Workspace:
    """``graph``'s search workspace, built on its first search."""
    ws = graph._workspace
    if ws is None:
        ws = graph._workspace = _Workspace(graph)
    return ws


class Ball(NamedTuple):
    """One :func:`settle_below` search."""

    order: np.ndarray  # the settled vertices, in settle order
    dist: np.ndarray  # their distances, aligned with ``order``
    radius: float  # the smallest tentative distance >= budget, inf if none
    marked: list[tuple[float, int, float, float]]  # (dist, vertex, passed, mark) of the recorded marked vertices
    weight_sum: float  # the relaxed edges' weights, summed in settle order (Table 7)


def settle_below(
    graph: Graph,
    source: int,
    budget: float,
    *,
    through: bytes | np.ndarray | None = None,
    mark: np.ndarray | None = None,
) -> Ball:
    """Every vertex closer to ``source`` than ``budget``, in one search.

    The result is exactly a settle-order search's, stopped at its first
    ``dist >= budget``:

    * ``order`` — the vertices settled below ``budget``, in settle order,
      and ``dist`` — the distance of each, aligned with ``order``;
    * ``radius`` — the distance the search stops at: the smallest tentative
      distance ``>= budget``, ``inf`` when the ball is the whole component;
    * ``marked`` — with a float64 array ``mark`` (one entry per vertex),
      one ``(dist, vertex, passed, mark)`` record per settled vertex with
      ``mark > 0``, in settle order, where ``passed`` is the largest mark
      strictly before the vertex on its settle-order shortest path (``0.0``
      if none).  With ``through`` given, only the vertices whose mark
      exceeds ``passed`` are recorded (Lemma 5.5-i);
    * ``weight_sum`` — the weights of the edges the search relaxes, that is
      every edge out of a settled vertex it walks past, added one by one in
      settle order and CSR row order.

    A vertex whose ``through`` byte is 0 is settled but never walked past.
    """
    n = graph.n_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} is outside [0, {n})")
    fb = ffi.from_buffer
    through = _NULL if through is None else fb("uint8_t[]", _checked(through, n))
    mark = _NULL if mark is None else fb("double[]", _checked(mark, n, {"d"}))
    ws = workspace(graph)
    with ws.lock:
        count = _raise_if_failed(lib.settle_below(ws.c, int(source), budget, through, mark))
        c = ws.c
        marked = ffi.buffer(c.marked, c.n_marked * _MARKED.itemsize) if c.n_marked else b""
        return Ball(
            ws.out_vertex[:count].copy(),
            ws.out_dist[:count].copy(),
            c.radius,
            np.frombuffer(marked, dtype=_MARKED).tolist(),
            c.weight_sum,
        )


def settle_to(
    graph: Graph,
    sources: Sequence[int] | np.ndarray,
    target: bytes | np.ndarray,
    *,
    stop: bytes | np.ndarray | None = None,
    limit: int | None = None,
) -> list[tuple[float, int]]:
    """``(dist, vertex)`` for the vertices whose ``target`` byte is set, in
    settle order, from all ``sources`` at once (each at distance 0).

    The output is a settle-order search's, filtered to the targets, bit for
    bit.  The search stops after ``limit`` targets, or after the first
    target whose ``stop`` byte is set (which is then the last one listed).
    """
    n = graph.n_vertices
    fb = ffi.from_buffer
    src = np.ascontiguousarray(sources, dtype=np.int64)
    target = fb("uint8_t[]", _checked(target, n))
    stop = _NULL if stop is None else fb("uint8_t[]", _checked(stop, n))
    ws = workspace(graph)
    with ws.lock:
        count = _raise_if_failed(
            lib.settle_to(ws.c, fb("int64_t[]", src), len(src), target, stop, n if limit is None else limit)
        )
        if count < 0:
            raise IndexError(f"a source is outside [0, {n})")
        return list(zip(ws.out_dist[:count].tolist(), ws.out_vertex[:count].tolist()))


def vertex_mask(n_vertices: int, vertices: Iterable[int]) -> np.ndarray:
    """A ``bool`` array over the vertices, true at ``vertices``: the
    ``target`` / ``stop`` / ``through`` form the kernel reads."""
    mask = np.zeros(n_vertices, dtype=bool)
    mask[np.fromiter(vertices, dtype=np.intp)] = True
    return mask


def dijkstra(graph: Graph, source: int, *, reverse: bool = False) -> np.ndarray:
    """Distances from ``source`` to every vertex; unreached ones stay
    ``inf``.  ``reverse`` gives distances *to* ``source`` instead, from the
    same search on ``graph.reverse``."""
    ball = settle_below(graph.reverse if reverse else graph, source, INF)
    row = np.full(graph.n_vertices, INF)
    row[ball.order] = ball.dist
    return row
