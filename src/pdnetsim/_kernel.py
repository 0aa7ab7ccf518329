"""Build and load the compiled engine passes, shuffle, sample, Gini and edge-list reader (`_pass.c`) on first use.

The shared library is compiled with `FLAGS` (-O3, with every float rounded
as the source states it) once per source, flag set and machine type
into ``${XDG_CACHE_HOME:-~/.cache}/pdnetsim/`` and reused by later
processes; as the XDG base directory spec says, a relative XDG_CACHE_HOME
is ignored. Each compile writes a temporary file that is then renamed into
place, so processes compiling at the same time never load a half-written
library. A compile then deletes all but the `KEEP` most recently modified
libraries in that directory, so that edits to the source do not pile up
libraries, while a few checkouts that share the cache keep theirs. When
that directory cannot be written, or there is no home directory to put it
in, the library is compiled into a temporary directory for this process
only.

This module alone knows how the kernel is called. `_pass.c` draws from a
`generator_copy` of an exact random.Random's MT19937 state (the words and
index of `getstate()`; a subclass may draw otherwise) as CPython's
random(), randrange and sample do, and `write_back` hands the copy back,
pending `gauss_next` kept, unless nothing else draws from that generator,
as in a run. The passes, the Gini and the samples allocate nothing: their
callers pass the working memory as one more `array` (`scratch`), so running
out of memory is Python's own MemoryError, raised before the kernel is
called.
"""

import ctypes
import functools
import hashlib
import os
import random
from array import array
from pathlib import Path

SOURCE = Path(__file__).with_name("_pass.c")
# -O3, not -O2: gcc vectorizes the generator's block refill (`twist` and
# `temper_block`) only at -O3, which halves the cost of a draw. Nothing that
# changes a float (-ffast-math, -Ofast, or contracting a*b+c into one fused
# rounding) and nothing tuned to this CPU (-march=native): the cache key names
# only the machine type, so a library may be loaded on another CPU of that type.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
KEEP = 4  # libraries a compile leaves in the cache directory, its own included

_SIGNATURES = {  # name: (result type, argument types)
    # pd_run(limit, order, held, offsets, targets, kinds, last, bal, start, params, acc, mt, stats, sums, scratch)
    "pd_run": (ctypes.c_int64, [ctypes.c_int64] + [ctypes.c_void_p] * 14),
    # pd_shuffle(order, n, mt)
    "pd_shuffle": (None, [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]),
    # pd_sample(out, m, k, by_pool, scratch, mt)
    "pd_sample": (None, [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2),
    # pd_gini(values, m, n, scratch, out)
    "pd_gini": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64] + [ctypes.c_void_p] * 2),
    # pd_read_edges(data, size, format, counts, &reader)
    "pd_read_edges": (
        ctypes.c_int,
        [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.POINTER(ctypes.c_void_p)],
    ),
    # pd_edges_csr(reader, labels, offsets, targets)
    "pd_edges_csr": (ctypes.c_int, [ctypes.c_void_p] * 4),
    # pd_edges_free(reader)
    "pd_edges_free": (None, [ctypes.c_void_p]),
}


class _CompileError(Exception):
    pass


def generator_copy(rng):
    """(library, state copy) when the kernel may draw for rng, else None."""
    library = load()[0] if type(rng) is random.Random else None
    return None if library is None else (library, array("I", rng.getstate()[1]))


def write_back(rng: random.Random, mt: array) -> None:
    """Make `mt`, a `generator_copy` state the kernel drew from, rng's state."""
    rng.setstate((rng.VERSION, tuple(mt), rng.gauss_next))


@functools.cache
def load():
    """(library, None) once the kernel is loaded, else (None, reason).

    The library's attributes named in _SIGNATURES are the C functions,
    with their argument and result types set.
    """
    import shutil

    compiler = shutil.which("cc")
    if compiler is None:
        return None, "no C compiler (cc) found"
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        return None, f"cannot read the kernel source: {exc}"
    key = hashlib.sha256(source + " ".join(FLAGS).encode() + os.uname().machine.encode())
    name = f"pass-{key.hexdigest()}.so"
    try:
        try:
            xdg = os.environ.get("XDG_CACHE_HOME", "")
            cache = Path(xdg if os.path.isabs(xdg) else Path.home() / ".cache") / "pdnetsim"
            return _open(_compile(compiler, cache / name))
        except (OSError, RuntimeError):  # an unwritable cache, or no home directory: build for this process only
            import tempfile

            with tempfile.TemporaryDirectory(prefix="pdnetsim-", ignore_cleanup_errors=True) as tmp:
                return _open(_compile(compiler, Path(tmp) / name))
    except (_CompileError, OSError) as exc:
        return None, f"compiling {SOURCE.name} failed: {exc}"


def _compile(compiler: str, target: Path) -> Path:
    """Compile SOURCE to `target` unless it is there already, then prune the
    other libraries beside it."""
    if target.exists():
        return target
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise _CompileError(lines[0] if lines else f"{compiler} exited with {proc.returncode}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(target.parent)
    return target


def _prune(directory: Path) -> None:
    """Delete all but the KEEP most recently modified libraries in `directory`.

    A process that has a deleted library loaded keeps using it, and one that
    wants it back compiles it again. Files another process removes meanwhile
    are skipped.
    """
    stamped = []
    for path in directory.glob("pass-*.so"):
        try:
            stamped.append((path.stat().st_mtime_ns, path))
        except OSError:
            pass
    for _, path in sorted(stamped, reverse=True)[KEEP:]:
        try:
            path.unlink()
        except OSError:
            pass


def _open(path: Path):
    """(library, None) from the library at `path`, or (None, reason)."""
    try:
        library = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(library, name)
            function.argtypes = argtypes
            function.restype = restype
    except (OSError, AttributeError) as exc:
        return None, f"loading the compiled kernel failed: {exc}"
    return library, None
