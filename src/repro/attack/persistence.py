"""Saving and loading profiled attack state.

Profiling is the expensive phase (the paper used 220,000 device
executions); a real campaign profiles once in the lab and attacks many
devices later.  ``save_attack``/``load_attack`` serialise everything the
attack phase needs - templates, branch classifier, POIs, the anchor
reference and the segmenter configuration - into a single ``.npz``
archive.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from repro.attack.branch import BranchClassifier
from repro.attack.pipeline import SingleTraceAttack
from repro.attack.segmentation import AnchorRefiner, Segmenter, SegmenterConfig
from repro.attack.template import TemplateSet
from repro.errors import AttackError

#: Version 2 adds ``standardize``/``pooled_covariance`` to the config
#: and the per-class covariance arrays of ``pooled=False`` templates.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def save_attack(
    attack: SingleTraceAttack, path: Union[str, Path, BinaryIO]
) -> None:
    """Serialise a profiled attack to ``path`` (a ``.npz`` archive, or a
    binary file object that receives one)."""
    if attack.templates is None or attack.branch_classifier is None:
        raise AttackError("profile() must run before saving")
    templates = attack.templates
    branch = attack.branch_classifier.templates
    payload = {
        "version": np.array([_FORMAT_VERSION]),
        "config": np.frombuffer(
            json.dumps(
                {
                    "segmenter": dataclasses.asdict(attack.segmenter.config),
                    "poi_method": attack.poi_method,
                    "poi_count": attack.poi_count,
                    "use_prior": attack.use_prior,
                    "sigma": attack.sigma,
                    "branch_region": list(attack.branch_region),
                    "refiner_before": attack.refiner.before,
                    "refiner_after": attack.refiner.after,
                    "standardize": attack.standardize,
                    "pooled_covariance": attack.pooled_covariance,
                }
            ).encode(),
            dtype=np.uint8,
        ),
        # value templates
        "value_pois": np.array(templates.pois, dtype=np.int64),
        "value_labels": np.array(templates.labels, dtype=np.int64),
        "value_means": np.vstack([templates.means[l] for l in templates.labels]),
        "value_precision": templates.precision,
        "value_priors": np.array(
            [templates.priors.get(l, 0.0) if templates.priors else np.nan
             for l in templates.labels]
        ),
        # branch templates
        "branch_pois": np.array(branch.pois, dtype=np.int64),
        "branch_labels": np.array(branch.labels, dtype=np.int64),
        "branch_means": np.vstack([branch.means[l] for l in branch.labels]),
        "branch_precision": branch.precision,
        # alignment
        "refiner_reference": attack.refiner.reference,
    }
    if templates.class_precisions is not None:
        payload["value_class_precisions"] = np.stack(
            [templates.class_precisions[l] for l in templates.labels]
        )
        payload["value_class_log_dets"] = np.array(
            [templates.class_log_dets[l] for l in templates.labels]
        )
    np.savez_compressed(path, **payload)


def load_attack(acquisition, path: Union[str, Path]) -> SingleTraceAttack:
    """Reconstruct a profiled attack bound to a (new) acquisition bench."""
    archive = np.load(Path(path), allow_pickle=False)
    if int(archive["version"][0]) not in _SUPPORTED_VERSIONS:
        raise AttackError(
            f"unsupported attack archive version {archive['version'][0]}"
        )
    config = json.loads(bytes(archive["config"].tobytes()).decode())

    segmenter = Segmenter(SegmenterConfig(**config["segmenter"]))
    attack = SingleTraceAttack(
        acquisition,
        segmenter=segmenter,
        poi_count=config["poi_count"],
        poi_method=config["poi_method"],
        use_prior=config["use_prior"],
        branch_region=tuple(config["branch_region"]),
        sigma=config["sigma"],
        # version-1 archives predate these knobs; their defaults match.
        pooled_covariance=config.get("pooled_covariance", True),
        standardize=config.get("standardize", False),
    )

    value_labels = [int(l) for l in archive["value_labels"]]
    priors_raw = archive["value_priors"]
    priors = None
    if not np.isnan(priors_raw).any():
        priors = {l: float(p) for l, p in zip(value_labels, priors_raw)}
    class_precisions = class_log_dets = None
    if "value_class_precisions" in archive:
        class_precisions = {
            l: archive["value_class_precisions"][i]
            for i, l in enumerate(value_labels)
        }
        class_log_dets = {
            l: float(archive["value_class_log_dets"][i])
            for i, l in enumerate(value_labels)
        }
    attack.templates = TemplateSet(
        pois=[int(p) for p in archive["value_pois"]],
        means={
            l: archive["value_means"][i] for i, l in enumerate(value_labels)
        },
        precision=archive["value_precision"],
        priors=priors,
        class_precisions=class_precisions,
        class_log_dets=class_log_dets,
    )

    branch_labels = [int(l) for l in archive["branch_labels"]]
    branch_templates = TemplateSet(
        pois=[int(p) for p in archive["branch_pois"]],
        means={
            l: archive["branch_means"][i] for i, l in enumerate(branch_labels)
        },
        precision=archive["branch_precision"],
    )
    attack.branch_classifier = BranchClassifier(
        branch_templates, attack.branch_region[0], attack.branch_region[1]
    )
    attack.refiner = AnchorRefiner(
        archive["refiner_reference"],
        before=config["refiner_before"],
        after=config["refiner_after"],
    )
    return attack
