"""Compute the per-team contribution feature registry.

Shows how labeled commits roll up into the named feature vector: per-user,
per-scope counts, churn, shares, message lengths, plus grades, risk flags,
pair-programming counts, and the selection method.
"""

from teamscope.mlcore import standardize_apply, standardize_fit
from teamscope.synthgen import GenConfig, generate_corpus, truth_labeled_commits
from teamscope.teamfeat import REGISTRY, build_matrix, extract_features, order_users

teams, truth = generate_corpus(GenConfig(seed=9, n_teams=10, noise_rate=0.1))
team = teams[0]
labeled = truth_labeled_commits(team, truth)

# User 0 is always the member with fewer total added lines, so the vector
# does not depend on roster row order.
user0, user1 = order_users(team, labeled)
print(f"team {team.team_id}: user0={user0}  user1={user1}")
print(f"style (ground truth): {truth.team_styles[team.team_id].value}\n")

vec = extract_features(team, labeled)
print(f"registry has {len(REGISTRY)} named features; a sample:")
for name in [
    "u0_commits_whole",
    "u1_commits_whole",
    "u0_commit_share_whole",
    "u0_churn_share_implementation",
    "u1_churn_share_implementation",
    "u0_avg_additions_test",
    "u0_msg_len_avg_whole",
    "u0_pair_commits",
    "team_pair_commits",
    "u0_exam1_grade",
    "team_any_risk",
    "team_selected",
]:
    print(f"  {name:34} = {vec[name]:.3f}")

# Shares always pair up: user 1's share is exactly one minus user 0's.
s0 = vec["u0_churn_share_whole"]
s1 = vec["u1_churn_share_whole"]
print(f"\nchurn share identity: {s0:.4f} + {s1:.4f} = {s0 + s1}")

# Dataset-level: one pass over every team's commits gives one row per team
# (extract_features above is the one-team call), then z-scored columns.
labeled_teams = [(t, truth_labeled_commits(t, truth)) for t in teams]
build = build_matrix(labeled_teams)
print(f"\nmatrix: {build.raw.shape[0]} teams x {build.raw.shape[1]} features")
means, stds = standardize_fit(build.raw)
standardized = standardize_apply(build.raw, means, stds)
print(f"standardized column means ~ 0: max |mean| = {abs(standardized.mean(0)).max():.2e}")
