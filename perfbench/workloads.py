"""The benchmark's job lists, the expected output of every job, and the
seeded generator of the user databases that the `user-db` workload reads.

A job is one `python -m cweil.cli ...` command.  Every job has an expected
stdout, held as a sha256 digest:

* bundled-data jobs: the digest of the stdout printed by the seed commit;
* `user-db` `verify-doubling`: the digest of the same command on bundled
  data, because permuting coordinates changes no enumerator;
* `aut` jobs: the digest of the line `aut NAME = ORDER`, where ORDER is the
  order recorded in the bundled data file.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "cweil", "data")

# sha256 of each bundled job's stdout, recorded at the seed commit.
DIGESTS = {
    "verify-2I-16-g1": "548629d92e548f409011f744db0d9b181011abffdb7f20a41dbc8cf9902594cb",
    "verify-2I-16-g2": "c3526dce26c5a0ea2cb9f2162de1ecca916344732908dcd86e3ea475a2bb9185",
    "verify-2II-24-g1": "62696ce0da6c55e5e0339c754b149e86533ab1b09191a5f0a006573428a5c981",
    "cusp-2I-16-g2": "287e6d3bb256988140f2263a5130fa1a2244426513f0bc51735d4c9294ea972f",
    "cwe-golay24-g1": "7b52f68b2f36e70b9db18540ddb64693ddd4e2cdcdb084ee9f8762345f055790",
    "aut-golay24": "b1c65c25819551ddc7a42949d6d2d0588d883e962d2fecac8b0eebdee88b3e74",
    "sw-2II-24-g1": "b6f17c105d8d6a0cf41660343caa52f5c6cbde43799a77475819ffb1749737ef",
    "constants-2II-24-g1": "8f9967428b8f35a6048efdb820150da9d059ade2693f379645d7404eca87e5ac",
    "group-2II-g2": "f0698828df75c9d1c28cb616b0dd50919d6f069901ff3a2c04fa8c338b99c4c7",
    "coset-2I-16-g2": "1a9feb15928ff792091774f053256588837eac9ceeb05a125025ad06604e64a0",
    "coset-2II-8-g2": "a2f8991d5d44918db24227a5f8acbefc7cb5fedfa0732e77fe3bcfddddbe9c31",
    "coset-2II-24-g1": "b6f17c105d8d6a0cf41660343caa52f5c6cbde43799a77475819ffb1749737ef",
    "group-Q1-g1-p3": "f1bf7a8ae23e7e77803d0420458b9c06e349630ca6d1bac363657e8cdf1dcd06",
}

# The user-db workload: codes taken from the bundled files, each under its
# own seeded coordinate permutation.  U16 is the whole declared-complete
# 2I-16 set, so `verify-doubling` can run on it; U24 is three 2II-24 codes
# and declares nothing complete.
USER_DBS = {
    "U16": ("codes_2i_n16.txt", None),
    "U24": ("codes_2ii_n24.txt", ("golay24", "d4six", "d12sq")),
}

WORKLOADS = {
    # The paper's headline use on the bundled data: almost all of each job
    # is loading the data files and their load-time aut recheck.
    "cli-verify": [
        ("verify-2I-16-g1", "verify-doubling --type 2I --length 16 --genus 1 --factorial"),
        ("verify-2I-16-g2", "verify-doubling --type 2I --length 16 --genus 2 --factorial"),
        ("verify-2II-24-g1", "verify-doubling --type 2II --length 24 --genus 1 --factorial"),
        ("cusp-2I-16-g2", "cusp --type 2I --length 16 --genus 2 --polys"),
        ("cwe-golay24-g1", "cwe --code golay24 --genus 1 --tuples"),
        ("aut-golay24", "aut --code golay24"),
        ("sw-2II-24-g1", "eisenstein --type 2II --length 24 --genus 1 --method siegel-weil"),
        ("constants-2II-24-g1", "constants --type 2II --length 24 --genus 1 --factorial"),
    ],
    # No data is loaded: group closures, coset labelling and coset averaging.
    "coset-average": [
        ("group-2II-g2", "group --type 2II --genus 2"),
        ("coset-2I-16-g2", "eisenstein --type 2I --length 16 --genus 2 --method coset"),
        ("coset-2II-8-g2", "eisenstein --type 2II --length 8 --genus 2 --method coset"),
        ("coset-2II-24-g1", "eisenstein --type 2II --length 24 --genus 1 --method coset"),
        ("group-Q1-g1-p3", "group --type Q1 --genus 1 --field 3 --parabolic"),
    ],
    # User files: strictly checked at load, and the aut search rerun on
    # codes whose coordinate order the seed chose.
    "user-db": [
        ("user-verify-2I-16-g2",
         "verify-doubling --db {U16} --type 2I --length 16 --genus 2 --factorial"),
        ("user-aut-golay24", "aut --db {U24} --code golay24 --recompute"),
        ("user-aut-d4six", "aut --db {U24} --code d4six --recompute"),
    ],
}


@dataclass(frozen=True)
class Job:
    id: str
    args: tuple[str, ...]
    expect_sha256: str


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records(text: str):
    """(header lines, [(name, lines)]) of a database file, comments dropped."""
    header, records, cur = [], [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("code "):
            cur = (line[5:].strip(), [line])
            records.append(cur)
        elif cur is None:
            header.append(line)
        else:
            cur[1].append(line)
    return header, records


def _permuted(lines: list[str], rng: random.Random) -> list[str]:
    rows = [ln[4:] for ln in lines if ln.startswith("gen ")]
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    permuted = iter("gen " + "".join(row[j] for j in perm) for row in rows)
    return [next(permuted) if ln.startswith("gen ") else ln for ln in lines]


def recorded_aut(source: str, name: str) -> int:
    with open(os.path.join(DATA, source)) as fh:
        _, records = _records(fh.read())
    lines = dict(records)[name]
    return int(next(ln[4:] for ln in lines if ln.startswith("aut ")))


def write_user_dbs(seed: int, outdir: str) -> dict[str, str]:
    """Write the user databases for `seed` into `outdir`; name -> path.

    The same seed gives the same bytes.  Names, field, type, length and the
    recorded aut orders are kept; only the coordinate order changes.
    """
    rng = random.Random(seed)
    paths = {}
    for db, (source, names) in USER_DBS.items():
        with open(os.path.join(DATA, source)) as fh:
            header, records = _records(fh.read())
        if names is not None:
            header, records = [], [r for r in records if r[0] in names]
        out = [f"# {source} under seeded coordinate permutations (seed {seed})"]
        out += header
        for _, lines in records:
            out += [""] + _permuted(lines, rng)
        paths[db] = os.path.join(outdir, f"{db}.txt")
        with open(paths[db], "w") as fh:
            fh.write("\n".join(out) + "\n")
    return paths


def jobs_for(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's jobs, with user databases generated into `workdir`."""
    dbs = write_user_dbs(seed, workdir) if workload == "user-db" else {}
    jobs = []
    for job_id, template in WORKLOADS[workload]:
        args = tuple(word.format(**dbs) for word in template.split())
        if "--recompute" in args:
            name = args[args.index("--code") + 1]
            order = recorded_aut(USER_DBS["U24"][0], name)
            expect = sha256(f"aut {name} = {order}\n".encode())
        else:
            expect = DIGESTS[job_id.removeprefix("user-")]
        jobs.append(Job(job_id, args, expect))
    return jobs
