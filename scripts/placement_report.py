#!/usr/bin/env python3
"""Code-placement report: where the hot functions sit within a cache line.

Lists, for two builds of the same program (e.g. perfbench at a parent commit
and at a change), each hot function's address modulo 64 and flags those whose
offset moved.  A loop's speed can shift with its offset inside a 64-byte
cache line (and the fetch window) even when its code is unchanged; GCC also
collects every function's `.cold` part at the start of `.text`, so any edit
elsewhere in the library can move all of them.  Read a per-stage time that
moved on code that did not change against this report before blaming the
change.

Symbols are read with `nm -C`; a symbol is matched by its demangled name up to
the argument list, so overloads and `[clone .cold]` parts are listed
separately (the hot body is the one without a clone suffix).  Informational
only: always exits 0, also when `nm` or a binary is missing.

Usage:
  placement_report.py OLD_BIN NEW_BIN
"""

from __future__ import annotations

import argparse
import subprocess
import sys

# The functions whose timings per-stage metrics are most sensitive to: the
# host-speed probe that scales perfbench's times, the min-area annealing
# restart and the incremental-evaluation kernels it drives, the §4.1 search
# and the batched evaluator's walk.
HOT_SYMBOLS = (
    "perfbench::HostProbe::run",
    "run_min_area_restart",
    "dominosyn::EvalState::apply_flip",
    "dominosyn::EvalState::undo",
    "dominosyn::EvalState::add_ref",
    "dominosyn::EvalState::remove_ref",
    "dominosyn::min_power_assignment",
    "dominosyn::EvalBatch::evaluate",
)

CACHE_LINE = 64


def read_symbols(binary: str) -> dict[str, int] | None:
    """Maps 'name' / 'name [clone .cold]' of every hot text symbol to its address."""
    try:
        listing = subprocess.run(["nm", "-C", binary], check=True,
                                 capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"placement_report: cannot read {binary}: {error}")
        return None
    found: dict[str, int] = {}
    for line in listing.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "t"):
            continue
        address, _, demangled = parts
        demangled = demangled.replace("(anonymous namespace)::", "")
        if ")::" in demangled:
            continue  # a lambda or local class inside the function
        name = demangled.split("(", 1)[0]
        for hot in HOT_SYMBOLS:
            if name == hot or name.endswith("::" + hot):
                clone = demangled.rsplit(")", 1)[-1].strip()
                key = hot + (f" {clone}" if clone else "")
                # Overloads: keep the lowest address, deterministically.
                value = int(address, 16)
                found[key] = min(found.get(key, value), value)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="binary built from the parent commit")
    parser.add_argument("new", help="binary built from the change")
    args = parser.parse_args()

    old = read_symbols(args.old)
    new = read_symbols(args.new)
    if old is None or new is None:
        return 0
    print(f"placement_report: address mod {CACHE_LINE}, {args.old} -> {args.new}")
    moved = 0
    for key in sorted(set(old) | set(new),
                      key=lambda k: (HOT_SYMBOLS.index(k.split(" [", 1)[0]), k)):
        before = old.get(key)
        after = new.get(key)
        if before is None or after is None:
            where = "new only" if before is None else "old only"
            print(f"  {key}: {where}")
            continue
        before_offset = before % CACHE_LINE
        after_offset = after % CACHE_LINE
        flag = "MOVED" if before_offset != after_offset else "same"
        moved += before_offset != after_offset
        print(f"  {key}: {before_offset:2d} -> {after_offset:2d}  {flag}")
    for hot in HOT_SYMBOLS:
        if not any(key.split(" [", 1)[0] == hot for key in set(old) | set(new)):
            print(f"  {hot}: not in either binary")
    print(f"placement_report: {moved} symbol(s) moved within their cache line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
