"""The per-user cache of the compiled kernel library.

:func:`repro.engine.native._build_library` keeps ``kernel.so`` in
``<gettempdir()>/repro-native-cache-<uid>/<key>.so`` so that a fresh
process loads it instead of compiling. Pinned here:

* a second fresh process hits the cache and passes ``self_test()``;
* a change of the C source or of the flags changes the key (a miss);
* processes racing on an empty cache all succeed with equal counts,
  and publish one file;
* a truncated cached file is recompiled and replaced;
* an untrusted cache dir (group/world-writable, a symlink, owned by
  another uid) or an untrusted file is never loaded from;
* a process leaves nothing in the temp dir but the cache dir and its
  one library, also when the compile fails;
* a miss that publishes a library prunes libraries of other keys older
  than a week and ``build-*`` work dirs older than an hour, and nothing
  else: no other name, no symlink, nothing of another uid, and never
  the library it just published.

Every test gets its own temp dir (``tempfile.tempdir`` in-process,
``TMPDIR`` for subprocesses), so no test sees another's cache.
"""

import ctypes
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

from repro.engine import native

SRC = str(pathlib.Path(native.__file__).resolve().parents[2])

COMPILER = shutil.which("cc") or shutil.which("gcc")

needs_compiler = pytest.mark.skipif(COMPILER is None,
                                    reason="no C compiler on PATH")

#: Run in a fresh process: apply the optional tweak in argv[1], resolve
#: the library, self-test it, and count the triangles of a fixed graph.
PROBE = r"""
import json, sys
import numpy as np
from repro import (DescendingDegree, DiscretePareto, generate_graph,
                   orient, sample_degree_sequence)
from repro.engine import native
exec(sys.argv[1])
ok = native.available() and native.self_test()
rng = np.random.default_rng(5)
degrees = sample_degree_sequence(DiscretePareto(1.7, 21.0).truncate(400),
                                 400, rng)
graph = orient(generate_graph(degrees, rng), DescendingDegree())
print(json.dumps({"ok": ok, "status": native.status(),
                  "count": native.count_triangles(graph)}))
"""


def _probe_cmd(tweak: str = "") -> list[str]:
    return [sys.executable, "-c", PROBE, tweak]


def _env(tmp: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NATIVE"}
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _probe(tmp: pathlib.Path, tweak: str = "") -> dict:
    out = subprocess.run(_probe_cmd(tweak), env=_env(tmp), check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def _cache_dir(tmp: pathlib.Path, uid: int | None = None) -> pathlib.Path:
    uid = os.getuid() if uid is None else uid
    return tmp / f"repro-native-cache-{uid}"


def _libraries(tmp: pathlib.Path) -> list[str]:
    return sorted(p.name for p in _cache_dir(tmp).iterdir())


@pytest.fixture
def cache_tmp(monkeypatch, tmp_path):
    """An empty temp dir and an unresolved library, in this process."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_lib", native._UNSET)
    monkeypatch.setattr(native, "_status",
                        {"state": "unresolved", "reason": None,
                         "compiler": None, "cache": "off"})
    return tmp_path


@pytest.fixture
def loaded(monkeypatch):
    """Every path this process passes to ``ctypes.CDLL``."""
    paths = []
    real = ctypes.CDLL

    def spy(name, *args, **kwargs):
        paths.append(str(name))
        return real(name, *args, **kwargs)

    monkeypatch.setattr(native.ctypes, "CDLL", spy)
    return paths


@needs_compiler
class TestCacheReuse:
    def test_second_process_hits(self, cache_tmp):
        first = _probe(cache_tmp)
        second = _probe(cache_tmp)
        assert first["ok"] and second["ok"]
        assert first["status"]["cache"] == "miss"
        assert second["status"]["cache"] == "hit"
        assert second["status"]["state"] == "ok"
        assert first["count"] == second["count"] > 0

    def test_process_leaves_only_the_cached_library(self, cache_tmp):
        assert _probe(cache_tmp)["ok"]
        assert os.listdir(cache_tmp) == [_cache_dir(cache_tmp).name]
        assert _libraries(cache_tmp) == [native._cache_key(COMPILER) + ".so"]

    @pytest.mark.parametrize("tweak", [
        "native._C_SOURCE += '\\n/* another source */\\n'",
        "native._CFLAGS += ('-DREPRO_CACHE_TEST',)",
    ], ids=["source", "flags"])
    def test_source_or_flag_change_misses(self, cache_tmp, tweak):
        assert _probe(cache_tmp)["status"]["cache"] == "miss"
        changed = _probe(cache_tmp, tweak)
        assert changed["ok"]
        assert changed["status"]["cache"] == "miss"
        assert len(_libraries(cache_tmp)) == 2
        assert _probe(cache_tmp, tweak)["status"]["cache"] == "hit"

    def test_key_covers_source_and_flags(self, monkeypatch):
        key = native._cache_key(COMPILER)
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-g",))
        flagged = native._cache_key(COMPILER)
        monkeypatch.setattr(native, "_C_SOURCE", native._C_SOURCE + " ")
        edited = native._cache_key(COMPILER)
        monkeypatch.setattr(native, "_C_BOXER", native._C_BOXER + " ")
        assert len({key, flagged, edited,
                    native._cache_key(COMPILER)}) == 4

    def test_concurrent_cold_start(self, cache_tmp):
        procs = [subprocess.Popen(_probe_cmd(), env=_env(cache_tmp),
                                  stdout=subprocess.PIPE, text=True)
                 for __ in range(4)]
        outs = [proc.communicate(timeout=300)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4
        results = [json.loads(out.splitlines()[-1]) for out in outs]
        assert all(r["ok"] and r["status"]["state"] == "ok"
                   for r in results)
        assert len({r["count"] for r in results}) == 1
        assert _libraries(cache_tmp) == [native._cache_key(COMPILER) + ".so"]
        assert _probe(cache_tmp)["status"]["cache"] == "hit"

    def test_truncated_library_is_recompiled(self, cache_tmp):
        good = _probe(cache_tmp)
        (name,) = _libraries(cache_tmp)
        path = _cache_dir(cache_tmp) / name
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:100])
        again = _probe(cache_tmp)
        assert again["ok"] and again["count"] == good["count"]
        assert again["status"]["cache"] == "miss"
        assert path.stat().st_size == size
        assert _probe(cache_tmp)["status"]["cache"] == "hit"


@needs_compiler
class TestCacheTrust:
    PLANTED = b"\x7fELF not a library"

    def _plant(self, cache_dir: pathlib.Path) -> pathlib.Path:
        cache_dir.mkdir()
        cache_dir.chmod(0o700)
        path = cache_dir / (native._cache_key(COMPILER) + ".so")
        path.write_bytes(self.PLANTED)
        return path

    def _assert_not_loaded(self, tmp, loaded, planted):
        assert native.available()
        assert native.self_test()
        assert native.status()["cache"] == "off"
        assert not [p for p in loaded if p.startswith(str(planted.parent))]
        assert planted.read_bytes() == self.PLANTED
        # the fallback compile cleaned up after itself
        assert os.listdir(tmp) == [planted.parent.name]

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777, 0o750])
    def test_loose_dir_mode_is_never_loaded(self, cache_tmp, loaded, mode):
        planted = self._plant(_cache_dir(cache_tmp))
        planted.parent.chmod(mode)
        self._assert_not_loaded(cache_tmp, loaded, planted)

    def test_dir_of_another_uid_is_never_loaded(self, cache_tmp, loaded,
                                                monkeypatch):
        other = os.getuid() + 1
        planted = self._plant(_cache_dir(cache_tmp, other))
        monkeypatch.setattr(native.os, "getuid", lambda: other)
        self._assert_not_loaded(cache_tmp, loaded, planted)

    def test_symlinked_dir_is_never_loaded(self, cache_tmp, loaded):
        planted = self._plant(cache_tmp / "elsewhere")
        _cache_dir(cache_tmp).symlink_to(planted.parent)
        assert native.available()
        assert native.status()["cache"] == "off"
        assert not [p for p in loaded if "elsewhere" in p]
        assert planted.read_bytes() == self.PLANTED

    @pytest.mark.parametrize("mode", [0o664, 0o646])
    def test_writable_file_is_replaced_not_loaded(self, cache_tmp, loaded,
                                                  mode):
        planted = self._plant(_cache_dir(cache_tmp))
        planted.chmod(mode)
        assert native.available()
        assert native.status()["cache"] == "miss"
        assert str(planted) not in loaded
        assert planted.read_bytes() != self.PLANTED
        assert native._trusted_file(str(planted))

    def test_file_of_another_uid_is_replaced_not_loaded(
            self, cache_tmp, loaded, monkeypatch):
        planted = self._plant(_cache_dir(cache_tmp))
        real = os.lstat

        def lstat(path, *args, **kwargs):
            st = real(path, *args, **kwargs)
            if str(path) != str(planted):
                return st
            fields = list(st)
            fields[4] = st.st_uid + 1  # st_uid
            return os.stat_result(fields)

        monkeypatch.setattr(native.os, "lstat", lstat)
        assert native.available()
        assert native.status()["cache"] == "miss"
        assert str(planted) not in loaded
        assert planted.read_bytes() != self.PLANTED


class TestCacheFallbacks:
    def test_no_compiler_ignores_a_warm_cache(self, cache_tmp, monkeypatch):
        if COMPILER is not None:
            assert _probe(cache_tmp)["status"]["cache"] == "miss"
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert not native.available()
        status = native.status()
        assert status["state"] == "no-compiler"
        assert status["cache"] == "off"

    @needs_compiler
    def test_failed_compile_leaves_no_work_dir(self, cache_tmp,
                                               monkeypatch):
        def fake_run(cmd, **kwargs):
            raise subprocess.CalledProcessError(
                1, cmd, stderr=b"kernel.c:1: error: boom")

        monkeypatch.setattr(native.subprocess, "run", fake_run)
        assert not native.available()
        assert native.status()["state"] == "compile-failed"
        assert native.status()["cache"] == "miss"
        assert os.listdir(cache_tmp) == [_cache_dir(cache_tmp).name]
        assert _libraries(cache_tmp) == []

    @needs_compiler
    def test_untrusted_cache_compiles_in_a_removed_work_dir(
            self, cache_tmp, monkeypatch):
        monkeypatch.setattr(native, "_cache_dir", lambda: None)
        assert native.available()
        assert native.status()["cache"] == "off"
        assert os.listdir(cache_tmp) == []

    @needs_compiler
    def test_unwritable_cache_dir_compiles_without_publishing(
            self, cache_tmp, monkeypatch):
        real = tempfile.mkdtemp

        def mkdtemp(*args, dir=None, **kwargs):
            if dir is not None:
                raise PermissionError(13, "Permission denied", dir)
            return real(*args, **kwargs)

        monkeypatch.setattr(native.tempfile, "mkdtemp", mkdtemp)
        assert native.available()
        assert native.self_test()
        assert native.status()["cache"] == "miss"
        assert os.listdir(cache_tmp) == [_cache_dir(cache_tmp).name]
        assert _libraries(cache_tmp) == []

    @needs_compiler
    def test_published_library_ignores_a_loose_umask(self, cache_tmp):
        old = os.umask(0o002)
        try:
            assert native.available()
        finally:
            os.umask(old)
        (name,) = _libraries(cache_tmp)
        assert native._trusted_file(str(_cache_dir(cache_tmp) / name))

    def test_gated_reports_cache_off(self, cache_tmp, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native.available()
        assert native.status()["cache"] == "off"
        assert os.listdir(cache_tmp) == []


@needs_compiler
class TestCachePrune:
    DAY = 24 * 3600

    @staticmethod
    def _plant(path: pathlib.Path, age_s: float, directory=False):
        if directory:
            path.mkdir()
            (path / "kernel.c").write_text("/* left by a killed build */")
        else:
            path.write_bytes(b"stale")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp), follow_symlinks=False)
        return path

    def _cache(self, tmp: pathlib.Path) -> pathlib.Path:
        cache = _cache_dir(tmp)
        cache.mkdir()
        cache.chmod(0o700)
        return cache

    def test_miss_prunes_only_stale_keys_and_work_dirs(self, cache_tmp):
        cache = self._cache(cache_tmp)
        week = native._STALE_LIBRARY_S
        hour = native._STALE_BUILD_S
        gone = [self._plant(cache / ("a" * 64 + ".so"), week + 60),
                self._plant(cache / "build-killed", hour + 60, True)]
        kept = [
            self._plant(cache / ("b" * 64 + ".so"), week - 3600),
            self._plant(cache / "build-running", hour - 60, True),
            # other names: not a key, a directory, a file named build-*
            self._plant(cache / ("c" * 63 + ".so"), week + 60),
            self._plant(cache / ("A" * 64 + ".so"), week + 60),
            self._plant(cache / ("d" * 64 + ".so.bak"), week + 60),
            self._plant(cache / ("e" * 64 + ".so"), week + 60, True),
            self._plant(cache / "build-file", hour + 60),
            self._plant(cache / "notes", week + 60, True),
        ]
        outside = self._plant(cache_tmp / "outside.so", week + 60)
        link = cache / ("f" * 64 + ".so")
        link.symlink_to(outside)
        dir_link = cache / "build-link"
        dir_link.symlink_to(cache / "notes")
        for path in (link, dir_link):
            stamp = time.time() - week - 60
            os.utime(path, (stamp, stamp), follow_symlinks=False)

        assert native.available()
        assert native.status()["cache"] == "miss"
        published = cache / (native._cache_key(COMPILER) + ".so")
        assert published.is_file()
        assert not any(os.path.lexists(p) for p in gone)
        assert all(p.exists() for p in kept)
        assert link.is_symlink() and dir_link.is_symlink()
        assert outside.read_bytes() == b"stale"
        assert (cache / "notes" / "kernel.c").exists()

    def test_files_of_another_uid_are_untouched(self, cache_tmp,
                                                monkeypatch):
        cache = self._cache(cache_tmp)
        foreign = self._plant(cache / ("a" * 64 + ".so"),
                              native._STALE_LIBRARY_S + 60)
        real = os.lstat

        def lstat(path, *args, **kwargs):
            st = real(path, *args, **kwargs)
            if str(path) != str(foreign):
                return st
            fields = list(st)
            fields[4] = st.st_uid + 1  # st_uid
            return os.stat_result(fields)

        monkeypatch.setattr(native.os, "lstat", lstat)
        assert native.available()
        assert native.status()["cache"] == "miss"
        assert foreign.read_bytes() == b"stale"

    def test_the_published_library_stays(self, cache_tmp):
        assert native.available()
        (name,) = _libraries(cache_tmp)
        published = _cache_dir(cache_tmp) / name
        # even once it is older than any bound
        stamp = time.time() - 30 * self.DAY
        os.utime(published, (stamp, stamp))
        native._prune_cache(str(published.parent), (str(published),))
        assert published.is_file()
        native._prune_cache(str(published.parent), ())
        assert not published.exists()

    def test_a_hit_prunes_nothing(self, cache_tmp):
        assert _probe(cache_tmp)["status"]["cache"] == "miss"
        stale = self._plant(_cache_dir(cache_tmp) / ("a" * 64 + ".so"),
                            native._STALE_LIBRARY_S + 60)
        assert native.available()
        assert native.status()["cache"] == "hit"
        assert stale.exists()
