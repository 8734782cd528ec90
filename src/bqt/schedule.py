"""One table of the module suites, and one scheduler for their checks.

SUITES gives each module suite's catalog on M (the (relation id, anchor,
instances) entries of every flavor it checks, and aux's checks beyond its
identities, with no instances), its checker, and the warm-up of a unit
split across workers (daha only).  The entries look their functions up by
name when called, so a wrapper bound over one (a tracer's, a test's) takes
effect.  check_ids runs a suite on M relation id by relation id, in catalog
order: the one path of an exact run at any number of workers and of each
point of a probabilistic run, so every mode lists the reports in one order.

A Unit is a realization descriptor, a suite name and the suite's params
(dmax, and kmax for bqt).  check_units(units, jobs) returns, for each unit,
the report objects of its relation ids in catalog order: the objects a run
of the units one after another gives, byte for byte once millis are zeroed.

jobs <= 1 runs the units in order in this process, with nothing warmed,
each unit's realization and tables released before the next is built.
Otherwise the parent builds every realization and forks min(jobs, tasks)
workers through an explicit fork context, so
the workers inherit the realizations and every table already in them
copy-on-write.  Several units are run whole, one task per unit, so each
unit's tables are built in one process only and dropped when its task
ends.  A single unit (what `bqt check --jobs` hands over) is split into
one task per relation id, and the parent first warms the tables its cases
read first, which the workers would otherwise each build again: for the
daha suite, the Y_i entries (the memo's y_entry builder, read directly) of
every basis key of degree <= dmax; the bqt and aux suites warm nothing.
The warm-up is best effort: an entry that raises a BqtError is left for
the case that reads it, which reports the error as a sequential run does.
A table a case reaches beyond those, such as Y on the raised degrees of an
X-word, is built by the worker that needs it; warming degree dmax + 1 as
well measured slower.

Workers claim tasks from one shared counter, longest first (LPT; Graham,
SIAM J. Appl. Math. 1969).  A task's cost is read from the identity
catalogs, never from relation names: the letters in its relations' words
that run a chain of generators on every key they meet (CHAIN_LETTERS),
times the number of basis keys of degree <= dmax.  A check without
instances costs 0; ties keep catalog order.  Each worker sends (task, report
objects), or (task, exception) when the task raised, through its own pipe.
The parent joins every worker before it returns and raises the exception of
the first failing task in unit and catalog order, as the sequential run
would have.  Forking is safe because the engine starts no threads.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import wait
from typing import Callable, NamedTuple

from .errors import BqtError
from .polyrep import y_entry
from .relations import (
    aux_checks,
    aux_identities,
    bqt_flavors,
    bqt_identities,
    check_aux_identities,
    check_bqt_relations,
    check_daha_relations,
    daha_identities,
    make_realization,
)
from .scalars import QT

# Y, eps and pi tilde of the module alphabet, and the flavored derived operators
CHAIN_LETTERS = frozenset(("Y", "Eps", "PiTilde", "z", "dplus", "dminus", "phi"))


class Suite(NamedTuple):
    catalog: Callable  # (M, params) -> [(relation id, anchor, instances)]
    check: Callable  # (M, params, only) -> [RelationReport]
    warm: Callable | None = None  # (M, params) -> None


SUITES = {
    "daha": Suite(
        lambda M, p: daha_identities(M.n, QT),
        lambda M, p, only: check_daha_relations(M, p["dmax"], only=only),
        lambda M, p: _warm_y(M, p),
    ),
    "bqt": Suite(
        lambda M, p: [e for k in bqt_flavors(M, p["kmax"]) for e in bqt_identities(M.n, k, QT)],
        lambda M, p, only: check_bqt_relations(M, p["kmax"], p["dmax"], only=only),
    ),
    "aux": Suite(
        lambda M, p: aux_identities(M.n, QT) + [(rid, None, ()) for rid, _ in aux_checks(M)],
        lambda M, p, only: check_aux_identities(M, p["dmax"], only=only),
    ),
}


class Unit(NamedTuple):
    desc: dict
    suite: str
    params: dict


def check_ids(unit: Unit, M, ids=None) -> list:
    """The unit's reports on M, relation id by relation id: of the given ids,
    else of every id in its suite's catalog, in catalog order."""
    suite = SUITES[unit.suite]
    if ids is None:
        ids = dict.fromkeys(rid for rid, _, _ in suite.catalog(M, unit.params))
    return [r for rid in ids for r in suite.check(M, unit.params, rid)]


def _costs(unit: Unit, M) -> dict:
    """Relation id -> the chain letters in the words of all its instances,
    times the number of basis keys of degree <= dmax; ids in catalog order."""
    size = sum(len(M.basis(d)) for d in range(unit.params["dmax"] + 1))
    costs: dict = {}
    for rid, _, items in SUITES[unit.suite].catalog(M, unit.params):
        words = (word for ident in items for _, word in ident.lhs + ident.rhs)
        n = sum(sym[0] in CHAIN_LETTERS for word in words for sym in word)
        costs[rid] = costs.get(rid, 0) + n * size
    return costs


def _warm_y(M, params: dict) -> None:
    """Y_i on every basis key of degree <= dmax: what every daha case reads first.

    Best effort: an entry that raises a BqtError stays unbuilt, so the case
    that reads it raises it again and reports it, as in a sequential run.
    """
    for d in range(params["dmax"] + 1):
        for v in M.basis(d):
            for key in v.coeffs:
                for i in range(1, M.n + 1):
                    try:
                        M._table(y_entry, i, key)
                    except BqtError:
                        pass


def check_units(units: list[Unit], jobs: int) -> list[list[dict]]:
    """Report objects of every unit, in unit order and catalog order (module docstring)."""
    if jobs <= 1:
        return [[r.to_obj() for r in check_ids(u, make_realization(u.desc))] for u in units]
    realizations = [make_realization(u.desc) for u in units]
    costs = [_costs(u, M) for u, M in zip(units, realizations)]
    split = len(units) == 1
    if split:
        tasks = [(0, [rid]) for rid in costs[0]]
    else:
        tasks = [(j, list(c)) for j, c in enumerate(costs)]
    order = sorted(
        range(len(tasks)), key=lambda t: -sum(costs[tasks[t][0]][r] for r in tasks[t][1])
    )
    warm = SUITES[units[0].suite].warm
    if split and warm:
        warm(realizations[0], units[0].params)

    def run(t: int) -> list[dict]:
        j, rids = tasks[t]
        M = realizations[j]
        if not split:  # the unit's one task: its tables go when it ends
            realizations[j] = None
        return [r.to_obj() for r in check_ids(units[j], M, rids)]

    results = _fork_and_collect(run, order, min(jobs, len(tasks)))
    out: list[list[dict]] = [[] for _ in units]
    for t, (j, _) in enumerate(tasks):
        if t not in results:
            raise RuntimeError(f"a worker exited before it reported task {t} of {len(tasks)}")
        if isinstance(results[t], Exception):
            raise results[t]
        out[j].extend(results[t])
    return out


def _fork_and_collect(run, order: list[int], workers: int) -> dict:
    """Task -> run(task) or the exception it raised, from forked workers
    claiming the tasks in the given order; every worker is joined on return."""
    ctx = multiprocessing.get_context("fork")
    claimed = ctx.Value("i", 0)
    procs, readers, results = [], [], {}
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(run, order, claimed, writer))
            proc.start()
            writer.close()
            procs.append(proc)
            readers.append(reader)
        while readers:
            for reader in wait(readers):
                try:
                    t, value = reader.recv()
                except EOFError:
                    readers.remove(reader)
                    reader.close()
                else:
                    results[t] = value
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
            if readers:  # left early: stop the workers still running
                proc.terminate()
            proc.join()
    return results


def _serve(run, order: list[int], claimed, writer) -> None:
    """Worker: claim the next task in order until none is left, sending each result."""
    with writer:
        while True:
            with claimed.get_lock():
                at = claimed.value
                claimed.value = at + 1
            if at >= len(order):
                return
            try:
                value = run(order[at])
            except Exception as exc:  # raised again by the parent, in task order
                value = exc
            writer.send((order[at], value))
