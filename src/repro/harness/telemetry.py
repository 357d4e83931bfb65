"""Harness telemetry: structured per-job run records, written atomically.

The parallel execution layer knows everything worth keeping about a
run — which jobs were served from cache, how long each simulation
took, which worker ran it, how many cycles it simulated — but until
now that story evaporated when the process exited (``RunTelemetry``
is in-memory only).  This module persists it: one JSONL line per job,
schema-tagged, written through the same atomic tmp-fsync-rename
discipline as every other artefact a killed worker must not truncate.

Telemetry is *descriptive*, not a golden artefact: records carry
wall-clock seconds and derived rates, which legitimately vary between
runs.  Anything that must be byte-stable (figure reports, traces,
attribution accounts) lives elsewhere.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional

#: Bump when the record layout changes (consumers check this).
#: v2: records gained ``served_from``.
TELEMETRY_SCHEMA_VERSION = 2


def atomic_write_text(path: os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp, flush+fsync, rename).

    Readers never observe a partial file: either the old content (or
    absence) or the complete new content.  A crash mid-write leaves at
    most a ``.tmp.<pid>`` file behind, never a truncated artefact at
    the final path.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f"{target.name}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def job_record_dict(record) -> Dict[str, Any]:
    """One JSONL-ready dict for a :class:`~...parallel.JobRecord`.

    Derived throughput (``cycles_per_sec``) is included for simulated
    jobs; cache hits and jobs served from a held result carry ``null``
    there — a 0-second "run" has no meaningful rate, and pretending
    otherwise would corrupt any downstream average.  ``served_from``
    names the config whose held result served the job (else ``null``).
    """
    cycles_per_sec: Optional[float] = None
    simulated = not record.cached and record.served_from is None
    if simulated and record.elapsed > 0:
        cycles_per_sec = record.cycles / record.elapsed
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "index": record.index,
        "benchmark": record.benchmark,
        "config": record.config,
        "scale": record.scale,
        "seed": record.seed,
        "cached": record.cached,
        "elapsed_s": record.elapsed,
        "worker": record.worker,
        "cycles": record.cycles,
        "cycles_per_sec": cycles_per_sec,
        "served_from": record.served_from,
    }


def render_jsonl(records: List[Dict[str, Any]]) -> str:
    """Canonical JSONL (sorted keys, one line per record)."""
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    )


def write_job_telemetry(path: os.PathLike, telemetry) -> int:
    """Persist one run's per-job records as an atomic JSONL file.

    Args:
        path: destination; the whole file is replaced per run (a run's
            telemetry is one self-contained artefact, not an append
            log — appending would interleave records from unrelated
            invocations and defeat the atomicity guarantee).
        telemetry: a :class:`~...parallel.RunTelemetry`.

    Returns:
        The number of records written.
    """
    records = [job_record_dict(record) for record in telemetry.records]
    atomic_write_text(path, render_jsonl(records))
    return len(records)


def read_job_telemetry(path: os.PathLike) -> List[Dict[str, Any]]:
    """Load a telemetry JSONL file back into record dicts."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]
