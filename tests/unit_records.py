"""The unit laws' records that `lighttails.orlicz` ships (`_UNIT_RECORDS`):
each law's psi estimates at alpha = 1 and 2, where the norm is finite, and
the moment rows their searches read, all from an empty law memo.

    python tests/unit_records.py

runs the searches in two child processes, one on numpy's X86_V4 (AVX-512)
path of float64 exp and one on its X86_V3 (AVX2) path, as under
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", keeps every
estimate and row that the two read alike, and rewrites the table in
src/lighttails/orlicz.py.  Rerun it when a change moves the bits of a unit
law's moments or search; `tests/test_orlicz.py::TestUnitRecords` proves
the table against a live search on the path it runs.  It needs a CPU with
AVX-512, so that the two children run different paths.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORLICZ = os.path.join(ROOT, "src", "lighttails", "orlicz.py")
AVX2 = "X86_V4 AVX512_ICL AVX512_SPR"   # the features that leave numpy on X86_V3

# the shipped laws, as the table writes them in orlicz.py
LAWS = ("dist._UNIT_GAUSSIAN", "dist._UNIT_EXPONENTIAL", "dist._UNIT_UNIFORM", "dist._UNIT_GAP",
        "dist._UNIT_CHI2", "dist.Centered(dist._UNIT_EXPONENTIAL)", "dist.Centered(dist._UNIT_GAP)",
        "dist.Centered(dist._UNIT_CHI2)", "dist.Centered(dist.Rademacher())")


def law_of(text):
    from lighttails import distributions as dist
    return eval(text, {"dist": dist})


def live_record(law):
    """(psi, rows) of law from a live search on an empty law memo: psi maps
    each alpha with a finite norm to (value, p*, method, upper), and rows
    are the moment rows p -> ln E|Z|^p the searches read."""
    from lighttails import distributions as dist, orlicz
    dist._laws.clear()
    psi = {}
    for alpha in (1, 2):
        try:
            orlicz.psi_norm(law, alpha)
        except (orlicz.NotSubGaussianError, orlicz.NotSubExponentialError):
            continue
        est = dist._law(law).psi[alpha]
        psi[alpha] = (est.value, est.p_star, est.method, est.upper)
    return psi, dict(dist._law(law).rows or {})


def _child():
    """Print the SIMD path and every law's live record as JSON, each float
    as its hex text."""
    from numpy.lib.introspect import opt_func_info
    path = opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
    records = {}
    for text in LAWS:
        psi, rows = live_record(law_of(text))
        records[text] = ({alpha: [v.hex(), p.hex(), method, u.hex()]
                          for alpha, (v, p, method, u) in psi.items()},
                         {p.hex(): lm.hex() for p, lm in rows.items()})
    json.dump({"path": path, "records": records}, sys.stdout)


def _run(env):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **env)
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _table(records):
    """The source text of `_UNIT_RECORDS` for records: text -> (psi, rows)."""
    lines = ["_UNIT_RECORDS = {"]
    for text, (psi, rows) in records.items():
        ests = [f'{alpha}: ({v!r}, {p!r}, "{method}", {u!r})'
                for alpha, (v, p, method, u) in sorted(psi.items())]
        lines.append(f"    {text}: (")
        lines.append("        {" + ",\n         ".join(ests) + "},")
        items = [f"{p!r}: {lm!r}" for p, lm in sorted(rows.items())]
        row_lines, line = [], ""
        for item in items:
            if line and len(line) + len(item) + 2 > 88:
                row_lines.append(line)
                line = ""
            line += (" " if line else "") + item + ","
        row_lines.append(line.rstrip(","))
        lines.append("        {" + "\n         ".join(row_lines) + "}),")
    return "\n".join(lines) + "\n}\n"


def main():
    native, avx2 = _run({}), _run({"NPY_DISABLE_CPU_FEATURES": AVX2})
    if (native["path"], avx2["path"]) != ("X86_V4", "X86_V3"):
        sys.exit(f"the children ran {native['path']} and {avx2['path']}, not X86_V4 and X86_V3")
    records = {}
    for text in LAWS:
        (psi, rows), (psi3, rows3) = native["records"][text], avx2["records"][text]
        for alpha in sorted(set(psi) | set(psi3)):
            if psi.get(alpha) != psi3.get(alpha):
                print(f"{text} at alpha = {alpha}: the paths differ, not shipped")
        for p in sorted(set(rows) | set(rows3), key=float.fromhex):
            if rows.get(p) != rows3.get(p):
                print(f"{text} at p = {float.fromhex(p)!r}: the paths differ, not shipped")
        records[text] = ({int(a): (float.fromhex(v), float.fromhex(p), m, float.fromhex(u))
                          for a, (v, p, m, u) in psi.items() if psi3.get(a) == psi[a]},
                         {float.fromhex(p): float.fromhex(lm) for p, lm in rows.items()
                          if rows3.get(p) == lm})
    with open(ORLICZ) as fh:
        source = fh.read()
    source, count = re.subn(r"^_UNIT_RECORDS = \{\n.*?^\}\n", lambda _: _table(records), source,
                            count=1, flags=re.M | re.S)
    if count != 1:
        sys.exit(f"no _UNIT_RECORDS table in {ORLICZ}")
    with open(ORLICZ, "w") as fh:
        fh.write(source)
    print(f"wrote {len(records)} laws' records to {ORLICZ}")


if __name__ == "__main__":
    _child() if sys.argv[1:] == ["--child"] else main()
