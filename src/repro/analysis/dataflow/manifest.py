"""The shard-safety manifest: machine-readable input to ROADMAP item 2.

The SimBricks-style multiprocessing shard refactor needs to know, per
module, which state can be freely replicated into workers (shard-safe)
and which must become per-shard objects, merged streams, or explicit
message-passing (shard-unsafe).  ``python -m repro dataflow --manifest
PATH`` writes exactly that inventory, deterministically (sorted keys,
no timestamps), so two runs over the same tree are byte-identical.

Schema (``repro.shard-safety`` v2)::

    {
      "schema": "repro.shard-safety",
      "version": 2,
      "n_modules": <int>,          # modules with >=1 module-level binding
      "n_mutables": <int>,         # mutable bindings inventoried
      "n_shard_unsafe": <int>,
      "modules": {
        "<modname>": {
          "imported_by": ["<modname>", ...],
          "mutables": [
            {"name": ..., "kind": ...,
             "mutable": true, "classification": "shard-safe|shard-unsafe",
             "reasons": ["<modname> <evidence>", ...],
             "aliases": ["<importing module>", ...]},
            ...
          ]
        }, ...
      },
      "shard_unsafe": ["<modname>.<NAME>", ...]   # flat sorted index
    }

Version 2 drops source line numbers (v1 had a ``line`` per entry and a
``:<line>`` per reason), so the committed manifest changes only when
the classification or its evidence does, not when code moves.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.dataflow.escape import ModuleStateInfo
from repro.analysis.dataflow.graph import ProgramGraph

SCHEMA = "repro.shard-safety"
SCHEMA_VERSION = 2


def build_manifest(graph: ProgramGraph,
                   infos: Sequence[ModuleStateInfo]) -> Dict[str, object]:
    modules: Dict[str, Dict[str, object]] = {}
    shard_unsafe: List[str] = []
    n_mutables = 0
    for info in sorted(infos, key=lambda i: (i.modname, i.lineno, i.name)):
        entry = modules.setdefault(info.modname, {
            "imported_by": graph.importers_of(info.modname),
            "mutables": [],
        })
        mutables = entry["mutables"]
        assert isinstance(mutables, list)
        if info.mutable:
            n_mutables += 1
            mutables.append(info.as_dict())
            if not info.shard_safe:
                shard_unsafe.append(info.qualname)
    # Drop modules whose bindings were all immutable constants.
    modules = {name: entry for name, entry in sorted(modules.items())
               if entry["mutables"]}
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "n_modules": len(modules),
        "n_mutables": n_mutables,
        "n_shard_unsafe": len(shard_unsafe),
        "modules": modules,
        "shard_unsafe": sorted(shard_unsafe),
    }


def format_manifest(manifest: Dict[str, object]) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(manifest: Dict[str, object], path: Path) -> Path:
    path = Path(path)
    path.write_text(format_manifest(manifest))
    return path


def load_manifest(path: Path) -> Dict[str, object]:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} manifest")
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported version "
                         f"{data.get('version')!r}")
    assert isinstance(data, dict)
    return data
