import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pdnetsim import _kernel

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    # A warning here could be an error under another compiler, which would
    # silently put every run on the Python loop.
    proc = subprocess.run(
        ["cc", *_kernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"), str(_kernel.SOURCE)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_kernel_flags_keep_floats_exact_and_the_library_portable():
    # Contracting a*b+c into one fused rounding, or fast-math, would change
    # the floats the Gini sums and random() give, which must match the
    # Python loop bit for bit. The cache key names only the machine type, so
    # a library tuned to this CPU could be loaded on another of that type.
    assert "-ffp-contract=off" in _kernel.FLAGS
    for flag in ("-ffast-math", "-Ofast", "-march=native", "-mtune=native"):
        assert flag not in _kernel.FLAGS


def test_load_without_a_compiler_gives_the_reason(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert _kernel.load.__wrapped__() == (None, "no C compiler (cc) found")


@needs_cc
def test_load_reports_a_compile_failure(tmp_path, monkeypatch):
    broken = tmp_path / "_pass.c"
    broken.write_text("int pd_run(void) { return }\n")
    monkeypatch.setattr(_kernel, "SOURCE", broken)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    function, reason = _kernel.load.__wrapped__()
    assert function is None
    assert reason.startswith("compiling _pass.c failed: ")
    assert not list((tmp_path / "cache" / "pdnetsim").iterdir())  # no temp file left behind


@needs_cc
def test_load_builds_into_the_cache_once(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    function, reason = _kernel.load.__wrapped__()
    assert function is not None and reason is None
    built = list((tmp_path / "pdnetsim").iterdir())
    assert len(built) == 1 and built[0].name.startswith("pass-") and built[0].suffix == ".so"
    mtime = built[0].stat().st_mtime_ns
    assert _kernel.load.__wrapped__()[0] is not None
    assert built[0].stat().st_mtime_ns == mtime


@needs_cc
def test_a_build_keeps_only_the_newest_libraries_in_the_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "pdnetsim"
    cache.mkdir()
    for age in range(6):  # pass-0.so is the newest of them, and older than any build
        old = cache / f"pass-{age}.so"
        old.write_text("")
        os.utime(old, ns=(10**18 - age * 10**9,) * 2)
    (cache / "other.txt").write_text("")
    function, reason = _kernel.load.__wrapped__()
    assert function is not None and reason is None
    # The new library and the three newest of the others are left, and
    # nothing that is not a library is touched.
    kept = {"pass-0.so", "pass-1.so", "pass-2.so", "other.txt"}
    left = {path.name for path in cache.iterdir()}
    assert kept < left
    (built,) = left - kept
    assert built.startswith("pass-") and built.endswith(".so")


@needs_cc
def test_unwritable_cache_builds_for_the_process(tmp_path, monkeypatch):
    not_a_directory = tmp_path / "file"
    not_a_directory.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    function, reason = _kernel.load.__wrapped__()
    assert function is not None and reason is None


@needs_cc
def test_no_home_directory_builds_for_the_process(monkeypatch):
    # Without HOME and without a passwd entry, Path.home() raises
    # RuntimeError; that must read as a cache that cannot be written.
    import pwd

    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.delenv("HOME", raising=False)

    def no_entry(uid):
        raise KeyError(f"getpwuid(): uid not found: {uid}")

    monkeypatch.setattr(pwd, "getpwuid", no_entry)
    function, reason = _kernel.load.__wrapped__()
    assert function is not None and reason is None


@needs_cc
def test_a_relative_xdg_cache_home_is_ignored(tmp_path):
    # The XDG base directory spec says to ignore a relative path; taken as
    # it is, it put a cache under whatever directory a command ran in.
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    package_root = str(Path(_kernel.__file__).parents[1])
    env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME="relcache", PYTHONPATH=package_root)
    code = "from pdnetsim import _kernel; library, reason = _kernel.load(); assert library is not None, reason"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []
    assert [path.suffix for path in (home / ".cache" / "pdnetsim").iterdir()] == [".so"]
