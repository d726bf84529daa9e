"""Metric and workload definitions, and the BENCHMARK.json built from them.

``python3 bench/manifest.py`` rewrites BENCHMARK.json at the repository
root; a test checks that the committed file matches.  The layer-to-metric
map and the baseline live in bench/README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = (
    ("matrix-sweep",
     "library loop generate-classify-coeffs-newton over seeded matrices n=4..64; "
     "mclass and linalg minors dominate, the matrix coefficient route lives here"),
    ("pair-profiles",
     "CLI sfunc over all feasible (m,k) for seeded M and inverse-M at n=14,15; "
     "only workload where pairsums profiles and the mask kernel carry the time"),
    ("form-spectra",
     "CLI forms psi/tilde_phi/tilde_psi up to C(14,7)=3432 with a CSV export, and identity; "
     "dense eigvalsh and overlap matrices dominate"),
    ("niep-batch",
     "one CLI niep-screen over 3000 seeded spectra n=3..12; niep, serialize, the cli pool "
     "and the spectrum coefficient route carry the time"),
)

# (name, unit, better, bound)
END_TO_END = (
    ("job_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("verdict_ok_share", "1", "higher", 0.05),
)

# (name, unit, better); .s is self time per pass, counts are per pass
PER_LAYER = (
    ("linalg.principal_minors_all.s", "s", "lower"),
    ("linalg.principal_minors_all.minors", "count", "lower"),
    ("linalg.subset_masks.s", "s", "lower"),
    ("linalg.subset_masks.calls", "count", "lower"),
    ("linalg.subset_masks.subsets", "count", "lower"),
    ("linalg.sym_eigenvalues.s", "s", "lower"),
    ("linalg.sym_eigenvalues.flops", "flop", "lower"),
    ("linalg.determinant.s", "s", "lower"),
    ("linalg.determinant.calls", "count", "lower"),
    ("linalg.minor_sums.s", "s", "lower"),
    ("charcoeff.normalized_coeffs.s", "s", "lower"),
    ("charcoeff.normalized_coeffs.max_rel_err", "1", "lower"),
    ("charcoeff.coeffs_from_spectrum.s", "s", "lower"),
    ("charcoeff.ensure_conjugate_closed.calls_per_item", "1", "lower"),
    ("charcoeff.newton_check.s", "s", "lower"),
    ("mclass.classify.s", "s", "lower"),
    ("mclass.generate.s", "s", "lower"),
    ("mclass.dual_minor_identity_check.s", "s", "lower"),
    ("pairsums.MinorPairSums.profile.s", "s", "lower"),
    ("pairsums.MinorPairSums.profile.pairs", "count", "lower"),
    ("pairsums.MinorPairSums.profile.cache_hit_ratio", "1", "higher"),
    ("pairsums.ratio_check.s", "s", "lower"),
    ("pairsums.pointwise_check.s", "s", "lower"),
    ("forms.build_form.s", "s", "lower"),
    ("forms.build_form.bytes", "B", "lower"),
    ("forms.overlap_matrix.calls", "count", "lower"),
    ("forms.psd_check.s", "s", "lower"),
    ("forms.psd_check.min_eig_err", "1", "lower"),
    ("forms.structure_checks.s", "s", "lower"),
    ("forms.binomial_identity_sum.s", "s", "lower"),
    ("niep.screen.s", "s", "lower"),
    ("niep.moment_condition.s", "s", "lower"),
    ("niep.jll_condition.s", "s", "lower"),
    ("niep.jll_condition.fails", "count", "lower"),
    ("niep.newton_shift_condition.s", "s", "lower"),
    ("niep.laffey_meehan_condition.s", "s", "lower"),
    ("niep.laffey_meehan_condition.fails", "count", "lower"),
    ("serialize.load_json.s", "s", "lower"),
    ("serialize.load_json.bytes", "B", "lower"),
    ("serialize.dumps_report.s", "s", "lower"),
    ("serialize.dumps_report.bytes", "B", "lower"),
    ("serialize.form_to_csv.s", "s", "lower"),
    ("serialize.form_to_csv.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("tracing_overhead_s", "s", "lower"),
)


def build() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(
        json.dumps(build(), indent=2) + "\n", encoding="utf-8")
