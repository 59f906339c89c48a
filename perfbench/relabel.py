"""Make verify inputs from a bundle that ``rdslink construct`` wrote.

Usage: python3 perfbench/relabel.py BUNDLE OUT_PREFIX SEED [--swap]

Relabels the bundle's group with a seeded permutation of 1..v-1 (the
identity stays at index 0) and writes, in the CLI's own JSON layout:

- OUT_PREFIX.bundle.json     relabeled group and set(s)
- OUT_PREFIX.forbidden.json  the relabeled forbidden subgroup
- OUT_PREFIX.swapped.json    with --swap: the sets with one seeded member
                             of one seeded set swapped for a non-member

Prints one JSON line: the bundle's sha256 and size, its family,
parameters and certificate, and the relabeled sets.  Runs as its own
process so that its memory does not count towards the workload's peak.
"""

import hashlib
import json
import random
import sys

import numpy as np


def _dump(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def main(argv):
    bundle_path, prefix, seed = argv[0], argv[1], int(argv[2])
    swap = "--swap" in argv[3:]
    with open(bundle_path, "rb") as fh:
        raw = fh.read()
    bundle = json.loads(raw)
    rng = random.Random(seed)

    spec = bundle["group"]
    v = spec["order"]
    table = np.asarray(spec["table"], dtype=np.int64).reshape(v, v)
    perm = np.arange(v)
    perm[1:] = rng.sample(range(1, v), v - 1)
    inv = np.argsort(perm)
    # new[perm[a], perm[b]] = perm[old[a, b]]
    new_table = perm[table[np.ix_(inv, inv)]]
    labels = [spec["labels"][int(a)] for a in inv]

    if "sets" in bundle:
        old_sets = [s["indices"] for s in bundle["sets"]]
    else:
        old_sets = [bundle["set"]["indices"]]
    sets = [sorted(int(perm[g]) for g in s) for s in old_sets]
    forbidden = sorted(int(perm[g]) for g in bundle["forbidden"])

    def with_sets(ss, obj):
        if "sets" in bundle:
            obj["sets"] = [{"indices": s} for s in ss]
        else:
            obj["set"] = {"indices": ss[0]}
        return obj

    group = {"name": spec["name"], "order": v,
             "table": new_table.reshape(-1).tolist(), "labels": labels}
    _dump(with_sets(sets, {"group": group}), prefix + ".bundle.json")
    _dump(forbidden, prefix + ".forbidden.json")
    if swap:
        i = rng.randrange(len(sets))
        members = set(sets[i])
        out = rng.choice(sets[i])
        into = rng.choice([g for g in range(v) if g not in members])
        swapped = list(sets)
        swapped[i] = sorted((members - {out}) | {into})
        _dump(with_sets(swapped, {}), prefix + ".swapped.json")

    summary = {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw),
               "family": bundle["family"], "params": bundle["params"],
               "certificate": {k: val for k, val in
                               bundle["certificate"].items()
                               if k not in ("sets", "set", "set_labels",
                                            "psi", "forbidden")},
               "exponent": bundle.get("exponent"), "sets": sets}
    sys.stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
