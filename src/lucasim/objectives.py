"""Security objectives O1-O6 as machine-checkable predicates.

Each check takes the adversary's knowledge and the ground-truth log and
returns a verdict, reading its lookups from the log's shared
:class:`~lucasim.model.TruthView` (built once for all six).  A verdict of
``holds=False`` always carries a witness that was re-verified against ground
truth inside the checker: the adversary claiming something is never enough,
the claim must be correct.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .adversary import AdversaryKnowledge, Cluster
from .model import GroundTruthLog, TruthView

__all__ = [
    "ObjectiveVerdict",
    "OBJECTIVE_TITLES",
    "check_O1",
    "check_O2",
    "check_O3",
    "check_O4",
    "check_O5",
    "check_O6",
    "evaluate_objectives",
]

OBJECTIVE_TITLES = {
    "O1": "an uninfected guest's contact data is known only to their guest app",
    "O2": "an uninfected guest's check-ins cannot be associated to the guest",
    "O3": "an uninfected or traced guest's check-ins cannot be associated to each other",
    "O4": "an infected guest's check-in history is disclosed only after their consent",
    "O5": "the health department learns only the relevant part of the check-in history",
    "O6": "traced guests' contact data is disclosed only after venue owners' consent",
}


class ObjectiveVerdict(NamedTuple):
    """Whether one security objective holds, with a witness when it does not."""

    objective: str
    holds: bool
    witness: Optional[dict[str, Any]] = None
    details: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective,
            "title": OBJECTIVE_TITLES[self.objective],
            "holds": self.holds,
            "witness": self.witness,
            "details": {} if self.details is None else self.details,
        }


def _cluster_pure_for(view: TruthView, cluster: Cluster, user_id: str) -> bool:
    return bool(cluster.record_ids) and all(
        view.record_user.get(rid) == user_id for rid in cluster.record_ids
    )


def _verified_attributions(view: TruthView, knowledge: AdversaryKnowledge) -> dict[str, set[str]]:
    """user_id -> records the adversary attributed to them, truth-verified."""
    out: dict[str, set[str]] = {}
    for rid, claim in sorted(knowledge.record_claims().items()):
        if view.record_user.get(rid) == claim.user_id:
            out.setdefault(claim.user_id, set()).add(rid)
    by_id = {c.cluster_id: c for c in knowledge.clusters}
    for cid, uid in sorted(knowledge.cluster_to_user_id.items()):
        cluster = by_id.get(cid)
        if cluster is not None and _cluster_pure_for(view, cluster, uid):
            out.setdefault(uid, set()).update(cluster.record_ids)
    return out


def check_O1(knowledge: AdversaryKnowledge, truth: GroundTruthLog) -> ObjectiveVerdict:
    view = truth.view()
    for uid in sorted(knowledge.contact_data):
        if uid in view.infected:
            continue
        claim = knowledge.contact_data[uid]
        if claim.contact == truth.contact_of(uid):
            return ObjectiveVerdict(
                "O1",
                holds=False,
                witness={
                    "user_id": uid,
                    "via": claim.via,
                    "note": "adversary holds the verified cleartext contact record",
                },
            )
    return ObjectiveVerdict("O1", holds=True)


def check_O2(knowledge: AdversaryKnowledge, truth: GroundTruthLog) -> ObjectiveVerdict:
    view = truth.view()
    by_id = {c.cluster_id: c for c in knowledge.clusters}
    for cid in sorted(knowledge.cluster_to_user_id):
        uid = knowledge.cluster_to_user_id[cid]
        cluster = by_id.get(cid)
        if uid in view.infected or cluster is None:
            continue
        if _cluster_pure_for(view, cluster, uid):
            return ObjectiveVerdict(
                "O2",
                holds=False,
                witness={
                    "cluster_id": cid,
                    "user_id": uid,
                    "record_ids": cluster.record_ids,
                    "association": "user_id",
                },
            )
    for cluster in knowledge.clusters:
        if cluster.kind != "ipv6":
            continue
        owners = {view.record_user.get(rid) for rid in cluster.record_ids}
        if len(owners) == 1:
            owner = owners.pop()
            if owner is not None and owner not in view.infected:
                return ObjectiveVerdict(
                    "O2",
                    holds=False,
                    witness={
                        "cluster_id": cluster.cluster_id,
                        "user_id": owner,
                        "address": cluster.anchor,
                        "record_ids": cluster.record_ids,
                        "association": "unique network identity",
                    },
                )
    return ObjectiveVerdict("O2", holds=True)


def check_O3(knowledge: AdversaryKnowledge, truth: GroundTruthLog) -> ObjectiveVerdict:
    view = truth.view()
    details = {"linkage": knowledge.checkin_linkage}
    for cluster in knowledge.clusters:
        per_user: dict[str, list[str]] = {}
        for rid in cluster.record_ids:
            uid = view.record_user.get(rid)
            if uid is not None:
                per_user.setdefault(uid, []).append(rid)
        for uid in sorted(per_user):
            if len(per_user[uid]) >= 2 and uid not in view.infected:
                return ObjectiveVerdict(
                    "O3",
                    holds=False,
                    witness={
                        "cluster_id": cluster.cluster_id,
                        "user_id": uid,
                        "record_ids": sorted(per_user[uid]),
                    },
                    details=details,
                )
    return ObjectiveVerdict("O3", holds=True, details=details)


def check_O4(knowledge: AdversaryKnowledge, truth: GroundTruthLog) -> ObjectiveVerdict:
    view = truth.view()
    attributed = _verified_attributions(view, knowledge)
    for uid in sorted(attributed):
        if uid in view.infected:
            continue
        if len(attributed[uid]) >= 2:
            return ObjectiveVerdict(
                "O4",
                holds=False,
                witness={
                    "user_id": uid,
                    "record_ids": sorted(attributed[uid]),
                    "note": "check-in history reconstructed without a positive report",
                },
            )
    return ObjectiveVerdict("O4", holds=True)


def check_O5(knowledge: AdversaryKnowledge, truth: GroundTruthLog) -> ObjectiveVerdict:
    view = truth.view()
    attributed = _verified_attributions(view, knowledge)
    for uid in sorted(view.windows):
        window = view.windows[uid]
        out_of_window = sorted(
            rid for rid in attributed.get(uid, ()) if view.record_day[rid] not in window
        )
        if out_of_window:
            return ObjectiveVerdict(
                "O5",
                holds=False,
                witness={
                    "user_id": uid,
                    "window_days": sorted(window),
                    "record_ids": out_of_window,
                    "days": sorted({view.record_day[r] for r in out_of_window}),
                },
            )
    return ObjectiveVerdict("O5", holds=True)


def check_O6(knowledge: AdversaryKnowledge, truth: GroundTruthLog) -> ObjectiveVerdict:
    view = truth.view()
    for rid in sorted(knowledge.stripped_records):
        stripped = knowledge.stripped_records[rid]
        if rid in view.consented:
            continue
        if stripped.inner_ciphertext.hex() == view.inner_refs.get(rid):
            witness = {
                "record_id": rid,
                "via": stripped.via,
                "note": "outer layer removed without an authenticable consent event",
            }
            claim = knowledge.record_claims().get(rid)
            if claim is not None and view.record_user.get(rid) == claim.user_id:
                witness["user_id"] = claim.user_id
                witness["contact_data_obtained"] = claim.user_id in knowledge.contact_data
            return ObjectiveVerdict("O6", holds=False, witness=witness)
    return ObjectiveVerdict("O6", holds=True)


def evaluate_objectives(
    knowledge: AdversaryKnowledge, truth: GroundTruthLog
) -> list[ObjectiveVerdict]:
    checks = (check_O1, check_O2, check_O3, check_O4, check_O5, check_O6)
    return [check(knowledge, truth) for check in checks]
