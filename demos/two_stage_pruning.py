"""Fitting an admixture model with too many components, then pruning.

A synthetic corpus is generated from 4 well-separated components.  EM is run
with a deliberately generous budget of 12; the convex hull of the fitted
component rows (in PCA coordinates) has far fewer extreme points than 12, so
the model is refit at that count.  The surviving components match the truth.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from simplexmix import synthetic_corpus, two_stage

corpus, phi_star, f_star = synthetic_corpus(
    m_star=4, j_terms=10, n_docs=2000, doc_len=200, separation=1.0, seed=7
)
print(f"corpus: {corpus.n_docs} docs, {corpus.n_terms} terms, {corpus.total_tokens} tokens")

report = two_stage(corpus, l0=12, pca_dim=5, seed=7, threads=2)
for r in report.rounds:
    print(f"round {r.round}: fit {r.components} components "
          f"(loglik {r.loglik:.1f}, {r.iterations} iters) -> {r.extrema_count} extreme")
print("final component count:", report.final_m)
print("all components identifiable:", bool(report.identifiable.all()))

# Match recovered components to the truth by total variation.
f_full = np.zeros((report.model.n_components, f_star.shape[1]))
f_full[:, report.term_remap] = report.model.f
tv = 0.5 * np.abs(f_full[:, None, :] - f_star[None, :, :]).sum(axis=2)
rows, cols = linear_sum_assignment(tv)
print("matched TV distances to true components:", np.round(tv[rows, cols], 5))
print("per-document mixing weights:", report.model.phi.shape)
print("note:", report.choquet_note)
