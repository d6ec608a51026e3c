"""Checks every answer the server gives, and the reference optimum they use.

An answer passes when all of these hold:

* ``order`` is a permutation of the submitted problem's services that
  honours its precedence edges, and ``services`` names them in that order;
* ``cost`` equals ``problem.cost(order)`` recomputed here, bit for bit;
* the ``fingerprint`` is the one first served for that generated problem;
* a cache hit returns, in the original problem's indices, the plan first
  served for that problem — or, once the cached entry may have been replaced
  (a renamed resubmission scheduled a re-optimization, or the problem was
  answered cold again after an eviction), a plan of exactly that cost or of
  the reference optimum's cost;
* an ``optimal: true`` claim has the reference optimum's cost.

The reference optimum is the in-repo exact solver (branch-and-bound) on the
scalar kernel, single-threaded, run here outside the timed window.  Two
orders with the same bottleneck term can differ in the last bits of the
rate product, so costs are compared with the optimum at a relative
tolerance of ``1e-9``; every other comparison is exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

from client import Record
from gen import Member, Op, Workload
from repro.core.optimizer import optimize
from repro.serialization import problem_from_dict

OPTIMUM_REL_TOL = 1e-9


class References:
    """Reference optima by problem key, cached on disk per workload and seed."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.costs: dict[int, float] = {}
        if path is not None and os.path.exists(path):
            with open(path) as handle:
                self.costs = {int(key): value for key, value in json.load(handle).items()}
        self._dirty = False

    def cost(self, key: int, document: dict) -> float:
        if key not in self.costs:
            problem = problem_from_dict(document)
            self.costs[key] = optimize(problem, "branch_and_bound", kernel="scalar").cost
            self._dirty = True
        return self.costs[key]

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        temporary = f"{self.path}.{os.getpid()}"
        with open(temporary, "w") as handle:
            json.dump(self.costs, handle)
        os.replace(temporary, self.path)
        self._dirty = False


@dataclass
class Outcome:
    plans: int = 0
    """Plans attempted (a batch counts each member)."""
    verified: int = 0
    optimal: int = 0
    """Verified plans whose cost is the reference optimum."""
    failures: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    """Error messages of non-200 answers, with their plan counts."""
    replaced_hits: int = 0
    """Hits checked by cost only, because the entry may have been replaced."""

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + count

    @property
    def wrong_answers(self) -> int:
        """Answered plans that failed a check (errors and refusals excluded)."""
        return sum(
            count for reason, count in self.failures.items() if not reason.startswith("http_")
        )


def _error_message(body: bytes) -> str:
    try:
        return str(json.loads(body)["error"])[:120]
    except (ValueError, KeyError, TypeError):
        return "connection error" if not body else body[:120].decode("utf-8", "replace")


@dataclass
class _First:
    order: tuple[int, ...]
    cost: float
    fingerprint: str


class Verifier:
    """Checks answers against the generated problems and each other.

    Call :meth:`scan` once over every request of the run (warm-up included),
    then :meth:`check` over each part in the order requests started.
    """

    def __init__(self, workload: Workload, references: References) -> None:
        self.workload = workload
        self.references = references
        self._problems: dict[tuple[int, tuple[int, ...] | None], object] = {}
        self._first: dict[int, _First] = {}
        self._replace_from: dict[int, float] = {}

    def _problem(self, member: Member):
        slot = (member.key, member.perm)
        problem = self._problems.get(slot)
        if problem is None:
            problem = self._problems[slot] = problem_from_dict(self.workload.document(member))
        return problem

    @staticmethod
    def _answers(op: Op, record: Record) -> list | None:
        if record.status != 200:
            return None
        try:
            document = json.loads(record.body)
            answers = document["responses"] if op.path == "/plan/batch" else [document]
        except (ValueError, KeyError, TypeError):
            return None
        if not isinstance(answers, list) or len(answers) != len(op.members):
            return None
        return answers

    def scan(self, requests: Sequence[tuple[Op, Record]]) -> None:
        """Find, per problem, when its cached plan may first have been replaced.

        Two events can replace it: a renamed resubmission (the service
        re-optimizes it in the background) and any cold answer after the
        first (an eviction made it miss again).  A hit that ends after such
        an event is checked by cost instead of by plan.
        """
        cold: dict[int, list[float]] = {}
        for op, record in requests:
            answers = self._answers(op, record) or [None] * len(op.members)
            for member, answer in zip(op.members, answers):
                if member.perm is not None:
                    self._note_replaceable(member.key, record.started)
                if isinstance(answer, dict) and answer.get("cache_hit") is False:
                    cold.setdefault(member.key, []).append(record.started)
        for key, starts in cold.items():
            if len(starts) > 1:
                self._note_replaceable(key, sorted(starts)[1])

    def _note_replaceable(self, key: int, when: float) -> None:
        self._replace_from[key] = min(when, self._replace_from.get(key, when))

    def check(self, requests: Sequence[tuple[Op, Record]], outcome: Outcome) -> list[bool]:
        """Check each request; returns, per request, whether all its plans passed."""
        passed = []
        for op, record in requests:
            outcome.plans += len(op.members)
            answers = self._answers(op, record)
            if answers is None:
                reason = f"http_{record.status}" if record.status != 200 else "malformed_body"
                outcome.fail(reason, len(op.members))
                if record.status != 200:
                    message = _error_message(record.body)
                    outcome.errors[message] = outcome.errors.get(message, 0) + len(op.members)
                passed.append(False)
                continue
            ok = True
            for member, answer in zip(op.members, answers):
                reason = self.check_answer(member, answer, record.ended, outcome)
                if reason is None:
                    outcome.verified += 1
                else:
                    outcome.fail(reason)
                    ok = False
            passed.append(ok)
        return passed

    def check_answer(
        self, member: Member, answer: dict, ended: float, outcome: Outcome
    ) -> str | None:
        """``None`` when ``answer`` is a correct plan for ``member``, else why not."""
        problem = self._problem(member)
        try:
            order = tuple(answer["order"])
            cost = answer["cost"]
            names = answer["services"]
            cache_hit = answer["cache_hit"]
            claimed_optimal = answer["optimal"]
            fingerprint = answer["fingerprint"]
        except (KeyError, TypeError):
            return "missing_field"
        size = problem.size
        if not all(type(index) is int for index in order) or sorted(order) != list(range(size)):
            return "not_a_permutation"
        position = {service: slot for slot, service in enumerate(order)}
        if problem.precedence is not None:
            for before, after in problem.precedence.edges():
                if position[before] >= position[after]:
                    return "precedence_violated"
        if list(names) != [problem.service(index).name for index in order]:
            return "names_mismatch"
        if type(cost) is not float or cost != problem.cost(order):
            return "cost_mismatch"
        optimum = self.references.cost(member.key, self.workload.documents[member.key])
        at_optimum = math.isclose(cost, optimum, rel_tol=OPTIMUM_REL_TOL)
        if cost < optimum and not at_optimum:
            return "below_reference_optimum"
        if claimed_optimal and not at_optimum:
            return "false_optimal_claim"
        original = order if member.perm is None else tuple(member.perm[i] for i in order)
        first = self._first.get(member.key)
        if first is None:
            self._first[member.key] = _First(original, cost, fingerprint)
        else:
            if fingerprint != first.fingerprint:
                return "fingerprint_changed"
            if cache_hit and original != first.order:
                if ended <= self._replace_from.get(member.key, float("inf")):
                    return "hit_changed_plan"
                if cost != first.cost and not at_optimum:
                    return "hit_changed_cost"
                outcome.replaced_hits += 1
        if at_optimum:
            outcome.optimal += 1
        return None
