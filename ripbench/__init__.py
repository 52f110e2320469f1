"""The repository's benchmark: `python3 ripbench/run.py --workload <name>`.

See ``ripbench/README.md`` for the workloads, metrics and how to run them.
"""

from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``ripbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test: the ``repro`` package sources.
SRC = ROOT / "src"
#: Scratch space for design-state directories and child outputs; removed
#: by each run before it exits.
WORK = ROOT / ".ripbench_work"

#: Environment switches of the program that would change what is measured:
#: a shared cache directory turns cold runs warm, fault injection and the
#: runtime sanitizer change the work done.  Stripped from every process the
#: benchmark starts.
STRIPPED_ENV = ("REPRO_CACHE_DIR", "REPRO_FAULTS", "REPRO_SANITIZE")


def peak_rss_kb(pid="self") -> int:
    """Peak RSS of one process since its ``exec`` (``VmHWM``), in KiB; 0 if gone.

    ``ru_maxrss`` is no substitute: ``subprocess`` starts children with
    vfork, so a child's ``ru_maxrss`` also counts its parent's memory.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
