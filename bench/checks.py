"""Output checks, computed separately from commbench.

Every check reads what the program wrote (the per-unit edge list and
membership files, records.csv, summary.csv) or the records it returned,
and recomputes the result with code of its own or with networkx. A failed
check names the operation whose output it rejects: a unit's generation
(algorithm None) or one detector run on that unit.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

STR_FIELDS = ("algorithm", "flags")
INT_FIELDS = ("n", "max_degree", "replicate", "seed", "communities_found", "communities_planted")
MIXING_TOLERANCE = 0.02  # the LfrConfig default, which sweeps keep
# Methods that keep only improving merges or their best level, so they
# never end below the all-singletons partition.
NO_WORSE_THAN_SINGLETONS = ("fastgreedy", "louvain", "walktrap")


@dataclass(frozen=True)
class Failure:
    op: tuple  # (cell key, replicate, algorithm or None for generation)
    message: str


def close6(recorded, exact):
    """True when `recorded` is `exact` stored at 6 significant digits."""
    return abs(recorded - exact) <= 5e-6 * abs(exact) + 1e-12


def unit_key(rec):
    return (rec.cell_key(), rec.replicate)


def unit_dir(runs_dir, rec):
    """Artifact directory of a record's unit: runs/<cell>/repNNN, where
    <cell> is the cell key without '=', with ',' as '_' and '.' as 'p'."""
    cell = rec.cell_key().replace("=", "").replace(",", "_").replace(".", "p")
    return Path(runs_dir) / cell / f"rep{rec.replicate:03d}"


def read_edges(path):
    edges = []
    with open(path) as fh:
        for line in fh:
            u, v = line.split()
            edges.append((int(u), int(v)))
    return edges


def read_membership(path, n):
    """Community label per node 0..n-1; raises ValueError unless each node
    appears exactly once."""
    labels = [None] * n
    with open(path) as fh:
        for line in fh:
            v, c = (int(x) for x in line.split())
            if not 0 <= v < n or labels[v] is not None:
                raise ValueError(f"node {v} out of range or listed twice")
            labels[v] = c
    if None in labels:
        raise ValueError(f"node {labels.index(None)} missing")
    return labels


def nmi_direct(actual, estimated):
    """NMI by direct summation over the nonzero confusion entries."""
    n = len(actual)
    rows, cols = Counter(estimated), Counter(actual)
    joint = Counter(zip(estimated, actual))
    h = math.fsum(c * math.log(c / n) for c in list(rows.values()) + list(cols.values()))
    if h == 0.0:
        return 1.0
    mi = math.fsum(c * math.log(c * n / (rows[i] * cols[j])) for (i, j), c in joint.items())
    return min(1.0, max(0.0, -2.0 * mi / h))


def _communities(labels):
    groups = defaultdict(set)
    for v, c in enumerate(labels):
        groups[c].add(v)
    return list(groups.values())


def check_network(edges, planted, rec):
    """Generation checks for one unit, recounted from its written files.
    Returns failure messages."""
    out = []
    n, k, mu = rec.n, rec.avg_degree, rec.mu_target
    canon = [(min(u, v), max(u, v)) for u, v in edges]
    if any(u == v for u, v in canon):
        out.append("self-loop in edge list")
    if len(set(canon)) != len(canon):
        out.append("duplicate edge in edge list")
    if any(not (0 <= u < n and 0 <= v < n) for u, v in canon):
        return out + ["edge endpoint outside 0..n-1"]
    deg = [0] * n
    ext = [0] * n
    for u, v in canon:
        deg[u] += 1
        deg[v] += 1
        if planted[u] != planted[v]:
            ext[u] += 1
            ext[v] += 1
    if min(deg) < 1 or max(deg) > rec.max_degree:
        out.append(f"degrees span [{min(deg)}, {max(deg)}], outside [1, {rec.max_degree}]")
        return out
    mean = sum(deg) / n
    sd = math.sqrt(sum((d - mean) ** 2 for d in deg) / n)
    if abs(mean - k) > 0.1 * k + 4 * sd / math.sqrt(n):
        out.append(f"mean degree {mean:.3f} far from the requested {k}")
    # Documented size bounds, resolved from the realized minimum degree.
    lo = math.ceil((1.0 - mu) * min(deg)) + 1
    hi = min(n, math.ceil((1.0 - mu) * rec.max_degree) + round(k))
    sizes = Counter(planted)
    if min(sizes.values()) < min(lo, hi) or max(sizes.values()) > hi:
        out.append(f"community sizes span [{min(sizes.values())}, {max(sizes.values())}], "
                   f"outside [{min(lo, hi)}, {hi}]")
    misfit = [v for v in range(n) if int((1.0 - mu) * deg[v] + 0.5) >= sizes[planted[v]]]
    if misfit:
        out.append(f"{len(misfit)} nodes' internal degree does not fit their community")
    if len(sizes) != rec.communities_planted:
        out.append(f"{len(sizes)} planted communities, record says {rec.communities_planted}")
    limit = (n - max(sizes.values())) / n
    if not close6(rec.mu_limit, limit):
        out.append(f"mu_limit {limit} recorded as {rec.mu_limit}")
    realized = math.fsum(ext[v] / deg[v] for v in range(n)) / n
    if not close6(rec.mu_realized, realized):
        out.append(f"realized mu {realized} recorded as {rec.mu_realized}")
    if "mixing-unconverged" not in rec.flags and abs(realized - mu) > MIXING_TOLERANCE:
        out.append(f"realized mu {realized:.4f} misses target {mu} without a flag")
    return out


def check_detection(graph, planted, found, rec):
    """Detector-run checks for one record. Returns failure messages."""
    import networkx as nx

    out = []
    nmi = nmi_direct(planted, found)
    if not close6(rec.nmi, nmi):
        out.append(f"NMI {nmi} recorded as {rec.nmi}")
    q = nx.community.modularity(graph, _communities(found))
    if not abs(rec.modularity - q) <= 5e-6 * abs(q) + 1e-9:
        out.append(f"modularity {q} recorded as {rec.modularity}")
    if len(set(found)) != rec.communities_found:
        out.append(f"{len(set(found))} communities found, record says {rec.communities_found}")
    two_m = 2.0 * graph.number_of_edges()
    if rec.algorithm in NO_WORSE_THAN_SINGLETONS:
        q_single = -math.fsum((d / two_m) ** 2 for _, d in graph.degree())
        if q < q_single - 1e-12:
            out.append(f"Q {q} below the all-singletons partition's {q_single}")
    if rec.algorithm == "leading_eigenvector" and q < -1e-12:
        out.append(f"Q {q} below the unsplit graph's 0")
    return out


def check_units(runs_dir, records, units, algorithms):
    """Checks every unit's artifacts and records. `units` lists the expected
    (cell key, replicate) pairs."""
    # Imported here, after the timed work, so that it does not raise the
    # benchmark's peak RSS.
    import networkx as nx

    failures = []
    by_unit = defaultdict(list)
    for rec in records:
        by_unit[unit_key(rec)].append(rec)
    for unit in units:
        recs = by_unit.pop(unit, [])
        if sorted(r.algorithm for r in recs) != sorted(algorithms):
            failures.append(Failure(unit + (None,), "unit skipped or records missing"))
            failures += [Failure(unit + (a,), "no record") for a in algorithms]
            continue
        rec0 = recs[0]
        where = unit_dir(runs_dir, rec0)
        try:
            edges = read_edges(where / "network.edges")
            planted = read_membership(where / "planted.membership", rec0.n)
        except (OSError, ValueError) as exc:
            failures.append(Failure(unit + (None,), f"unreadable network artifacts: {exc}"))
            failures += [Failure(unit + (r.algorithm,), "network unreadable") for r in recs]
            continue
        failures += [Failure(unit + (None,), m) for m in check_network(edges, planted, rec0)]
        graph = nx.Graph()
        graph.add_nodes_from(range(rec0.n))
        graph.add_edges_from(edges)
        for rec in recs:
            op = unit + (rec.algorithm,)
            try:
                found = read_membership(where / f"{rec.algorithm}.membership", rec.n)
            except (OSError, ValueError) as exc:
                failures.append(Failure(op, f"unreadable membership: {exc}"))
                continue
            failures += [Failure(op, m) for m in check_detection(graph, planted, found, rec)]
    for unit, recs in by_unit.items():
        failures += [Failure(unit + (r.algorithm,), "record of an unexpected unit") for r in recs]
    return failures


def _typed(field, text):
    if field in STR_FIELDS:
        return text
    return int(text) if field in INT_FIELDS else float(text)


def check_csv(out_dir, records):
    """records.csv must read back as `records`, in order, and summary.csv
    must hold the per-cell means recomputed from them."""
    failures = []
    with open(Path(out_dir) / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records):
        failures.append(Failure(("records.csv", -1, None),
                                f"{len(rows)} rows for {len(records)} records"))
    for row, rec in zip(rows, records):
        bad = [f for f, text in row.items() if _typed(f, text) != getattr(rec, f)]
        if bad:
            failures.append(Failure(unit_key(rec) + (rec.algorithm,),
                                    f"records.csv round trip changed {bad}"))

    groups = defaultdict(list)
    for rec in records:
        groups[(rec.n, rec.avg_degree, rec.gamma, rec.beta, rec.mu_target, rec.algorithm)].append(rec)
    with open(Path(out_dir) / "summary.csv", newline="") as fh:
        summary = {
            (int(r["n"]), float(r["avg_degree"]), float(r["gamma"]), float(r["beta"]),
             float(r["mu_target"]), r["algorithm"]): r
            for r in csv.DictReader(fh)
        }
    for key, recs in groups.items():
        row = summary.pop(key, None)
        ops = [unit_key(r) + (r.algorithm,) for r in recs]
        if row is None:
            failures += [Failure(op, "no summary row for its cell") for op in ops]
            continue
        nmis = [r.nmi for r in recs]
        mean = math.fsum(nmis) / len(nmis)
        expect = {
            "runs": len(recs),
            "mean_nmi": mean,
            "std_nmi": math.sqrt(math.fsum((x - mean) ** 2 for x in nmis) / len(nmis)),
            "mean_runtime_ms": math.fsum(r.runtime_ms for r in recs) / len(recs),
            "mean_mu_realized": math.fsum(r.mu_realized for r in recs) / len(recs),
            "mean_mu_limit": math.fsum(r.mu_limit for r in recs) / len(recs),
        }
        bad = [f for f, want in expect.items() if not close6(float(row[f]), want)]
        if bad:
            failures += [Failure(op, f"summary.csv disagrees on {bad}") for op in ops]
    for key in summary:
        failures.append(Failure(("summary.csv", -1, None), f"summary row without records: {key}"))
    return failures


def compare_records(reference, other):
    """Failures for every record of `other` that differs from the record of
    the same (unit, algorithm) in `reference`, apart from `runtime_ms`."""
    def key(rec):
        return unit_key(rec) + (rec.algorithm,)

    def content(rec):
        return tuple(v for f, v in vars(rec).items() if f != "runtime_ms")

    ref = {key(r): content(r) for r in reference}
    failures = [Failure(key(r), "record differs from the reference pass")
                for r in other if ref.get(key(r)) != content(r)]
    missing = set(ref) - {key(r) for r in other}
    failures += [Failure(op, "record missing from this pass") for op in sorted(missing, key=str)]
    return failures


def check_regeneration(runs_dir, rec, edges, membership):
    """A unit regenerated from its recorded seed must give the edge list and
    planted partition written for it."""
    op = unit_key(rec) + (None,)
    where = unit_dir(runs_dir, rec)
    written = read_edges(where / "network.edges")
    if sorted(written) != sorted(edges):
        return [Failure(op, "regenerated edges differ from the written edge list")]
    if read_membership(where / "planted.membership", rec.n) != list(membership):
        return [Failure(op, "regenerated planted partition differs from the written one")]
    return []
