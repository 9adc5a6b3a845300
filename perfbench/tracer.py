"""Run one cweil CLI command in this process and record where its time went.

Usage: python tracer.py SPANS_FILE JOB_ID -- CLI_ARGS...

The tracer imports `cweil.cli`, then replaces each layer's public entry
function at every module that binds it (`cweil.cli.load_bundled` and
`cweil.database.load_bundled` are one function under two bindings) with a
wrapper that records a span.  A few hot methods get a call counter instead
of a span, so that tracing them stays cheap and they do not split the self
time of the span around them.  It then calls `cweil.cli.main(argv)`; the
command's stdout is unchanged.  Spans are kept in memory and written as JSON
lines when the command ends: one line per span (name, start, end, parent
span id, job id, the `cache_info()` hit delta of a cached layer, and sizes
read off the result; a call that raised has no delta and no sizes), then
one `counters` line with the call counts.
"""

from __future__ import annotations

import json
import sys
import time

# Layer entry points that get a span, by module.
SPANNED = {
    "cli": ("main",),
    "database": ("load_bundled", "parse_db"),
    "autgroup": ("aut_order",),
    "weightenum": ("cwe",),
    "siegelphi": ("cusp_basis",),
    "doubling": ("verify_doubling", "doubling_pairing_sw", "eisenstein_sw"),
    "cliffordweil": ("group_closure", "parabolic_closure", "coset_labels",
                     "eisenstein_coset"),
}

# Hot methods that only get a call counter: (module, class, method) -> name.
COUNTED = {
    ("cliffordweil", "Operator", "apply"): "cliffordweil.apply_calls",
    ("poly", "Poly", "__mul__"): "poly.mul_calls",
    ("cyclo", "CycNum", "__mul__"): "cyclo.mul_calls",
}


def _sizes(name: str, result) -> dict:
    """Sizes of a layer's result that the benchmark reports as counts."""
    if name in ("database.load_bundled", "database.parse_db"):
        return {"records": len(result.records)}
    if name in ("cliffordweil.group_closure", "cliffordweil.parabolic_closure"):
        return {"order": result.order}
    if name == "cliffordweil.coset_labels":
        return {"cosets": len(result[0])}
    return {}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTED.values(), 0)

    def span(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = {"id": sid, "name": name, "job": self.job,
                   "parent": self.stack[-1] if self.stack else None}
            self.spans.append(rec)
            self.stack.append(sid)
            hits = cache_info().hits if cache_info else 0
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
            if cache_info:  # the cache_info() delta over this call
                rec["cache_hit"] = cache_info().hits - hits
            rec.update(_sizes(name, result))
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every binding of the SPANNED and COUNTED callables."""
        for mod, names in SPANNED.items():
            for fname in names:
                orig = getattr(modules[mod], fname)
                wrapped = self.span(f"{mod}.{fname}", orig)
                for m in modules.values():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
        for (mod, cls_name, meth), key in COUNTED.items():
            cls = getattr(modules[mod], cls_name)
            orig = vars(cls)[meth]
            wrapped = self.counter(key, orig)
            for attr, value in list(vars(cls).items()):
                if value is orig:  # e.g. __rmul__ = __mul__
                    setattr(cls, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"name": "counters", "job": self.job,
                                 "counts": self.counts}) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, job = argv[0], argv[1]
    import cweil.cli  # noqa: F401  (imports every module the CLI uses)

    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("cweil.")}
    tracer = Tracer(job)
    tracer.install(modules)
    try:
        return modules["cli"].main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
