"""Predict team work styles and flag likely solo-submitters.

Covers the second half of the pipeline: rubric-based oracle labels, the
cascade of one-vs-rest classifiers (random forest vs logistic + RFE), fold
evaluation, and the intervention-facing solo-submit flag report.
"""

from teamscope.synthgen import GenConfig, generate_corpus, truth_labeled_commits
from teamscope.teamfeat import build_matrix
from teamscope.teamstyle import (
    TeamStyle,
    evaluate_team_model,
    flag_solo_submitters,
    oracle_labels,
    train_team_model,
)

config = GenConfig(seed=99, n_teams=100, style_mix=(0.5, 0.3, 0.2), noise_rate=0.1)
teams, truth = generate_corpus(config)
labeled_teams = [(t, truth_labeled_commits(t, truth)) for t in teams]

# The rubric reads the feature matrix: Collaborative when both members hold
# a 30-70% churn share in at least two active parts; Solo-submit when user
# 0's overall share is tiny; Cooperative otherwise.
build = build_matrix(labeled_teams)
styles = oracle_labels(build)
print("oracle label counts:", {s.value: styles.count(s) for s in TeamStyle})

for algorithm in ("forest", "logistic_rfe"):
    result = evaluate_team_model(
        build.raw, styles, algorithm=algorithm, k=5, seed=99, registry=build.registry
    )
    print(f"\n{algorithm}: macro-F1 {result.macro_f1:.3f}")
    for style, report in result.reports.items():
        print(f"  {style:14} F1={report.f1:.2f} P={report.precision:.2f} R={report.recall:.2f}")
    top = result.selected_features["SoloSubmit"][:5]
    print(f"  solo-submit stage features: {', '.join(top)}")

# Train on everything and flag the teams the solo stage fires on, ranked by
# vote share, each with its standardized evidence features.
model = train_team_model(build.raw, styles, algorithm="forest", seed=99)
flags = flag_solo_submitters(model, build.raw, build.team_ids)
print(f"\nflagged {len(flags)} teams as solo-submit; most confident first:")
for flag in flags[:5]:
    strongest = sorted(flag.features, key=lambda nv: abs(nv[1]), reverse=True)[:3]
    detail = ", ".join(f"{name}={value:+.2f}" for name, value in strongest)
    print(f"  {flag.team_id} (confidence {flag.confidence:.2f}): {detail}")
