// Direction runs: align every reference relation of one KB against
// candidates from the other, record every mined rule with both confidence
// values, and score against ground truth — possibly at many thresholds
// without re-running the (expensive) alignment.

#ifndef SOFYA_EVAL_EXPERIMENT_H_
#define SOFYA_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "align/relation_aligner.h"
#include "endpoint/endpoint.h"
#include "eval/metrics.h"
#include "synth/ground_truth.h"
#include "synth/world_generator.h"

namespace sofya {

/// One mined rule with everything needed for offline re-scoring.
struct MinedRuleRecord {
  std::string body_iri;  ///< r' in the candidate KB.
  std::string head_iri;  ///< r in the reference KB.
  double cwa_conf = 0.0;
  double pca_conf = 0.0;
  size_t support = 0;
  size_t pairs = 0;
  size_t pca_pairs = 0;
  bool ubs_subsumption_pruned = false;
  bool ubs_equivalence_pruned = false;
  bool accepted = false;     ///< Under the run's own measure/τ/UBS config.
  bool equivalence = false;  ///< Under the run's own config.
};

/// Everything produced by one direction run.
struct DirectionRun {
  std::string candidate_kb;  ///< KB tag of rule bodies.
  std::string reference_kb;  ///< KB tag of rule heads.
  std::vector<std::string> attempted_heads;  ///< Reference relations aligned.
  std::vector<MinedRuleRecord> rules;

  uint64_t candidate_queries = 0;
  uint64_t reference_queries = 0;
  uint64_t rows_shipped = 0;
  double simulated_latency_ms = 0.0;
  double wall_ms = 0.0;
};

/// Options for RunDirection.
struct DirectionRunOptions {
  AlignerOptions aligner;
  /// Align only the first N reference relations (0 = all). Relations are
  /// taken in sorted-IRI order for determinism.
  size_t max_relations = 0;
  /// Worker threads for the per-relation fan-out (RelationAligner::
  /// AlignMany). 1 = sequential. Rule records and scores are identical for
  /// any value; only wall_ms changes.
  size_t num_threads = 1;
  /// Run-level RNG seed: nonzero derives the finder and sampler seeds via
  /// ApplyRunSeed (one CLI --seed reproduces the whole run); 0 keeps the
  /// seeds already in `aligner`.
  uint64_t seed = 0;
};

/// Runs one direction: candidates from `candidate`, heads from `reference`
/// (every relation IRI in `reference_relations`).
StatusOr<DirectionRun> RunDirection(
    Endpoint* candidate, Endpoint* reference, const SameAsIndex& links,
    const std::vector<std::string>& reference_relations,
    const DirectionRunOptions& options);

/// Offline scoring policy (mirrors the aligner's acceptance gates so that
/// re-thresholding a τ=0 run reproduces what a live run would accept).
struct ScorePolicy {
  ConfidenceMeasure measure = ConfidenceMeasure::kPca;
  double tau = 0.3;
  /// Reject rules flagged ubs_subsumption_pruned.
  bool apply_ubs = false;
  size_t min_pairs = 2;
  size_t min_support = 3;
};

/// Scores a run's rules against `truth` under `policy`. False negatives are
/// gold subsumption pairs (restricted to the attempted heads) that were not
/// accepted.
PrecisionRecall ScoreSubsumptions(const DirectionRun& run,
                                  const GroundTruth& truth,
                                  const ScorePolicy& policy);

/// Scores the run's *equivalence* decisions (as recorded) against gold
/// equivalences over the attempted heads.
PrecisionRecall ScoreEquivalences(const DirectionRun& run,
                                  const GroundTruth& truth);

/// One τ point of a threshold sweep over two directions.
struct SweepPoint {
  double tau = 0.0;
  PrecisionRecall dir1;
  PrecisionRecall dir2;
  double mean_f1 = 0.0;
};

/// Sweep result with the argmax-by-mean-F1 τ (the paper's τ protocol).
struct SweepResult {
  std::vector<SweepPoint> points;
  double best_tau = 0.0;
  const SweepPoint* best() const;
};

/// Evaluates both direction runs on a τ grid (policy.tau is overridden by
/// each grid value).
SweepResult SweepThreshold(const DirectionRun& run1, const DirectionRun& run2,
                           const GroundTruth& truth,
                           const std::vector<double>& taus,
                           ScorePolicy policy);

/// The default τ grid {0.05, 0.10, ..., 0.95}.
std::vector<double> DefaultTauGrid();

}  // namespace sofya

#endif  // SOFYA_EVAL_EXPERIMENT_H_
