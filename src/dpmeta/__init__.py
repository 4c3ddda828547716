"""Differentially private meta-initialization learning on convex tasks.

The library pairs a task-global private learner (noisy projected SGD with
exact closed-form calibration) with a running-average meta-learner, plus a
synthetic task environment and harness for measuring excess transfer risk
against task similarity, sample counts, task counts, and privacy budgets.
Each name lives in the module that declares it (dpmeta.harness,
dpmeta.losses, ...); the package itself re-exports nothing.
"""
