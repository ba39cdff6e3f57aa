"""Small measuring helpers: percentiles, row checksums, /proc readers, host facts."""

from __future__ import annotations

import os
import platform
import subprocess
import zlib

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(sorted_values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def rows_crc(rows) -> int:
    """An order-independent checksum of result rows.

    Rows arrive as tuples in process and as JSON arrays over the wire;
    both flatten to the same text, and the per-row CRCs are summed so
    backends that iterate in different orders agree.
    """
    crc32 = zlib.crc32
    total = 0
    for row in rows:
        total += crc32("\x1f".join(map(str, row)).encode())
    return total & 0xFFFFFFFF


def proc_status_kb(pid: int | str, field: str) -> int:
    """One kB-valued field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_seconds(pid: int | str) -> float:
    """User + system CPU seconds of a process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fp:
        # The command name may hold spaces; fields resume after the ")".
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def dir_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def fs_type(path: str) -> str:
    """The filesystem type holding ``path`` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fp:
            for line in fp:
                _dev, mount, fstype = line.split()[:3]
                if len(mount) >= len(best) and (
                    path == mount or path.startswith(mount.rstrip("/") + "/")
                ):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def host_metadata(root: str, store_dir: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "store_fs": fs_type(store_dir),
        "git_commit": git_commit(root),
    }
