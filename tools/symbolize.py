#!/usr/bin/env python3
"""Resolve and summarize a report of tools/heapprof.c or tools/sampler.c.

Both tools write one line per call stack: counts (heap: live bytes and live
blocks at the heap's peak, then allocations over the run; sampler: samples)
followed by frames of the form <module>+0x<offset>. This script resolves the frames with addr2line
(one call per module) and prints:

  * heap reports: live bytes at the peak by site, where a site is the first
    frame outside the allocator (malloc, operator new, the frame pool and
    the std:: allocators), so a coroutine frame is charged to the
    coroutine whose ramp allocated it;
  * sampler reports: self samples (the interrupted function) and inclusive
    samples (every function on the stack, once per sample) per function.

Usage: symbolize.py REPORT [--top N] [--callers N]
"""

import argparse
import re
import subprocess
import sys
from collections import defaultdict

# Frames a heap site is never charged to: the allocator and its wrappers.
SKIP = re.compile(r"^(malloc|calloc|realloc|free|memalign|aligned_alloc|posix_memalign"
                  r"|operator new.*|operator delete.*|__libc_.*"
                  r"|tio::sim::FramePool::.*|tio::sim::PooledFrame::.*"
                  r"|std::(__new_allocator|allocator|allocator_traits|_Vector_base|__cxx11::basic_string"
                  r"|vector|_Hashtable|__detail::_Hashtable_alloc).*)$")


def parse(path):
    header, stacks = "", []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line.strip()
                continue
            parts = line.split()
            if not parts:
                continue
            if header.startswith("# heapprof"):
                counts, frames = tuple(int(x) for x in parts[:3]), parts[3:]
            else:
                counts, frames = (int(parts[0]),), parts[1:]
            stacks.append((counts, frames))
    return header, stacks


def resolve(frames):
    """Maps each '<module>+0x<off>' to (function, 'file:line')."""
    by_module = defaultdict(set)
    for fr in frames:
        module, _, off = fr.rpartition("+")
        by_module[module].add(off)
    names = {}
    for module, offs in by_module.items():
        offs = sorted(offs)
        # Return addresses point after the call; look up the call itself.
        query = [hex(max(0, int(o, 16) - 1)) for o in offs]
        try:
            out = subprocess.run(["addr2line", "-f", "-C", "-e", module] + query,
                                 capture_output=True, text=True, check=True).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            out = []
        for i, off in enumerate(offs):
            fn = out[2 * i] if 2 * i < len(out) else "??"
            loc = out[2 * i + 1] if 2 * i + 1 < len(out) else "??:0"
            if fn == "??":
                fn = f"{module.rsplit('/', 1)[-1]}+{off}"
            names[f"{module}+{off}"] = (fn, loc.rsplit("/", 1)[-1])
    return names


def short(fn, width=100):
    return fn if len(fn) <= width else fn[:width - 3] + "..."


def heap_report(stacks, names, top, callers):
    """Live bytes by site; `callers` more frames name each site's caller chain."""
    by_site = defaultdict(lambda: [0, 0, 0, ""])
    total = 0
    for (live, blocks, allocs), frames in stacks:
        chain = []
        for fr in frames:
            module = fr.rpartition("+")[0]
            fn, loc = names[fr]
            if not chain and ("heapprof" in module or SKIP.match(fn)):
                continue
            chain.append((fn, loc))
            if len(chain) > callers:
                break
        site = " <- ".join(short(fn, 60) for fn, _ in chain) if chain else "??"
        row = by_site[site]
        row[0] += live
        row[1] += blocks
        row[2] += allocs
        row[3] = chain[0][1] if chain else ""
        total += live
    rows = sorted(by_site.items(), key=lambda kv: -kv[1][0])[:top]
    print(f"{'live bytes':>12} {'share':>6} {'blocks':>8} {'avg B':>7} {'allocs':>10}  site")
    for site, (live, blocks, allocs, loc) in rows:
        share = 100.0 * live / total if total else 0
        avg = live // blocks if blocks else 0
        print(f"{live:>12} {share:>5.1f}% {blocks:>8} {avg:>7} {allocs:>10}  {short(site, 160)} ({loc})")


def sampler_report(stacks, names, top):
    self_n, incl_n = defaultdict(int), defaultdict(int)
    total = 0
    for (count,), frames in stacks:
        fns = []
        for fr in frames:
            module = fr.rpartition("+")[0]
            fn = names[fr][0]
            if "sampler" in module:
                continue
            fns.append(fn)
        if not fns:
            continue
        total += count
        self_n[fns[0]] += count
        for fn in set(fns):
            incl_n[fn] += count
    print(f"{total} samples")
    print(f"{'self':>7} {'self%':>6} {'incl%':>6}  function")
    for fn, n in sorted(self_n.items(), key=lambda kv: -kv[1])[:top]:
        print(f"{n:>7} {100.0 * n / total:>5.1f}% {100.0 * incl_n[fn] / total:>5.1f}%  {short(fn)}")
    print(f"\n{'incl':>7} {'incl%':>6}  function")
    for fn, n in sorted(incl_n.items(), key=lambda kv: -kv[1])[:top]:
        print(f"{n:>7} {100.0 * n / total:>5.1f}%  {short(fn)}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--callers", type=int, default=0,
                    help="heap reports: also name this many callers of each site")
    args = ap.parse_args(argv)
    header, stacks = parse(args.report)
    if not stacks:
        print(f"{args.report}: no stacks", file=sys.stderr)
        return 1
    print(header)
    names = resolve({fr for _, frames in stacks for fr in frames})
    if header.startswith("# heapprof"):
        heap_report(stacks, names, args.top, args.callers)
    else:
        sampler_report(stacks, names, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
