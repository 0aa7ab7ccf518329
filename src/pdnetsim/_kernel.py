"""Build and load the compiled engine pass, Gini and edge-list reader (`_pass.c`) on first use.

The shared library is compiled once per source, flag set and machine type
into ``${XDG_CACHE_HOME:-~/.cache}/pdnetsim/`` and reused by later
processes. Each compile writes a temporary file that is then renamed into
place, so processes compiling at the same time never load a half-written
library. When that directory cannot be written, or there is no home
directory to put it in, the library is compiled into a temporary directory
for this process only.
"""

import ctypes
import functools
import hashlib
import os
from pathlib import Path

SOURCE = Path(__file__).with_name("_pass.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_SIGNATURES = {  # name: (result type, argument types)
    # pd_pass(order, m, held, offsets, targets, kinds, last, bal, start, params, acc, mt)
    "pd_pass": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 10),
    # pd_gini(values, m, n, out)
    "pd_gini": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p]),
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
            cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "pdnetsim"
            return _open(_compile(compiler, cache / name))
        except (OSError, RuntimeError):  # an unwritable cache, or no home directory: build for this process only
            import tempfile

            with tempfile.TemporaryDirectory(prefix="pdnetsim-", ignore_cleanup_errors=True) as tmp:
                return _open(_compile(compiler, Path(tmp) / name))
    except (_CompileError, OSError) as exc:
        return None, f"compiling {SOURCE.name} failed: {exc}"


def _compile(compiler: str, target: Path) -> Path:
    """Compile SOURCE to `target` unless it is there already."""
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
    return target


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
