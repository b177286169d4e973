#!/usr/bin/env python3
"""rocker_cli must refuse a checkpoint of an older container format with
exit 4 (failed resume), not misdecode it.

Usage: resume_old_format.py ROCKER_CLI SCRATCH_DIR

Writes a checkpoint from a truncated run, rewrites the container's format
version (the u32 after the 4-byte magic) to the previous version, and
resumes from it.
"""
import os
import struct
import subprocess
import sys


def main():
    cli, scratch = sys.argv[1], sys.argv[2]
    os.makedirs(scratch, exist_ok=True)
    ckpt = os.path.join(scratch, "old-format.%d.rkcp" % os.getpid())
    try:
        cut = subprocess.run([cli, "--max-states", "100", "--checkpoint",
                              ckpt, "peterson-ra"], capture_output=True)
        if cut.returncode != 2 or not os.path.exists(ckpt):
            sys.exit("truncated run: exit %d, no checkpoint?\n%s" %
                     (cut.returncode, cut.stderr.decode()))
        with open(ckpt, "r+b") as f:
            f.seek(4)
            (version,) = struct.unpack("<I", f.read(4))
            f.seek(4)
            f.write(struct.pack("<I", version - 1))
        res = subprocess.run([cli, "--resume", ckpt, "peterson-ra"],
                             capture_output=True)
        err = res.stderr.decode()
        if res.returncode != 4 or "format version" not in err:
            sys.exit("resume of a version-%d checkpoint: exit %d\n%s" %
                     (version - 1, res.returncode, err))
        print("version-%d checkpoint rejected with exit 4" % (version - 1))
    finally:
        for p in (ckpt, ckpt + ".tmp"):
            if os.path.exists(p):
                os.remove(p)


if __name__ == "__main__":
    main()
