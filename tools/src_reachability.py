#!/usr/bin/env python3
"""Link-time reachability gate: every src/ object must reach a real binary.

For each member object of every `libopass_*.a` in a build tree, at least one
of the member's defined text (`T`) symbols must also be defined in at least
one executable under the build's `examples/` or `bench/` directories. The
libraries are static archives, so the linker copies a member into a binary
only when the binary needs one of its symbols; a member whose `T` symbols
appear in no example or bench binary is code that only tests reach, and the
gate names it. There is no allowlist: such code is deleted, not excused.

Include-graph reach is not enough for this: the `opass/opass.hpp` umbrella
header includes everything, and some translation units are reached by one
bench binary only.

Usage:
  src_reachability.py <build-dir>
  src_reachability.py --self-test

Uses `nm` from PATH; the self-test also compiles with `c++` and `ar`.

Exit status: 0 when every member is reached, 1 when a member is not (each is
printed as `unreachable: <archive>(<member>)`), 2 on a usage error (no
archives or no executables found, or `nm` failed). The self-test compiles a
two-member archive and a binary that uses one member, and checks that the
gate names exactly the other.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile

BINARY_DIRS = ("examples", "bench")


class UsageError(Exception):
    pass


def nm_defined(path: pathlib.Path) -> str:
    proc = subprocess.run(["nm", "--defined-only", str(path)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise UsageError(f"nm failed on {path}: {proc.stderr.strip()}")
    return proc.stdout


def text_symbols(lines) -> set:
    """Names of the `T` symbols in `nm` symbol lines."""
    out = set()
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[1] == "T":
            out.add(parts[2])
    return out


def archive_members(archive: pathlib.Path) -> dict:
    """Member name -> its defined `T` symbols, for one static archive."""
    members: dict = {}
    current = None
    for line in nm_defined(archive).splitlines():
        if line.endswith(":") and " " not in line:
            current = line[:-1]
            members[current] = set()
        elif current is not None:
            members[current] |= text_symbols([line])
    return members


def is_elf_executable(path: pathlib.Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def find_binaries(build: pathlib.Path) -> list:
    out = []
    for name in BINARY_DIRS:
        root = build / name
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if "CMakeFiles" in path.parts:
                continue
            if is_elf_executable(path):
                out.append(path)
    return out


def unreachable_members(build: pathlib.Path) -> list:
    """`<archive>(<member>)` for every member no binary links."""
    archives = sorted(build.rglob("libopass_*.a"))
    if not archives:
        raise UsageError(f"no libopass_*.a under {build}")
    binaries = find_binaries(build)
    if not binaries:
        raise UsageError(f"no executables under {build}/{{{','.join(BINARY_DIRS)}}}")
    linked = set()
    for binary in binaries:
        linked |= text_symbols(nm_defined(binary).splitlines())
    out = []
    for archive in archives:
        for member, symbols in sorted(archive_members(archive).items()):
            if not symbols & linked:
                out.append(f"{archive.name}({member})")
    return out


def run(build: pathlib.Path) -> int:
    try:
        missing = unreachable_members(build)
    except (UsageError, OSError) as e:
        print(f"src_reachability: {e}", file=sys.stderr)
        return 2
    for m in missing:
        print(f"unreachable: {m}")
    if missing:
        print(f"src_reachability: {len(missing)} object(s) reached by no "
              f"{' or '.join(BINARY_DIRS)} binary")
        return 1
    print("src_reachability: every library object is linked into a binary")
    return 0


def self_test() -> int:
    sources = {
        "used.cpp": "int used_fn(int x) { return x + 1; }\n",
        "dead.cpp": "int dead_fn(int x) { return x * 2; }\n",
        "main.cpp": "int used_fn(int);\nint main() { return used_fn(-1); }\n",
    }
    with tempfile.TemporaryDirectory(prefix="src_reachability_selftest.") as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        (root / "examples").mkdir()
        for name, text in sources.items():
            (root / name).write_text(text, encoding="utf-8")

        def sh(*cmd):
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                raise UsageError(f"{' '.join(cmd)}: {proc.stderr.strip()}")

        try:
            for name in ("used", "dead", "main"):
                sh("c++", "-c", f"{name}.cpp", "-o", f"{name}.cpp.o")
            sh("ar", "rcs", "src/libopass_fake.a", "used.cpp.o", "dead.cpp.o")
            sh("c++", "main.cpp.o", "src/libopass_fake.a", "-o", "examples/app")
            missing = unreachable_members(root)
        except (UsageError, OSError) as e:
            print(f"self-test: could not build the fixture: {e}")
            return 2
    if missing == ["libopass_fake.a(dead.cpp.o)"]:
        print("self-test: named exactly the member no binary links")
        print("self-test: ok")
        return 0
    print(f"self-test: FAIL — expected ['libopass_fake.a(dead.cpp.o)'], got {missing}")
    return 1


def main(argv: list) -> int:
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 2 or argv[1].startswith("--"):
        print(__doc__, file=sys.stderr)
        return 2
    return run(pathlib.Path(argv[1]).resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv))
