// Correctness checks behind the benchmark's failed count.
//
// Every answer gets the cheap shape check.  A sample of each run's queries
// is re-checked after the timed phase: each returned score is recomputed
// with BruteForceEvaluator::Tau, and the top-k score list is compared with
// STDS run on an engine built with the other feature-index kind, so a
// wrong answer must fool two independent algorithms over two different
// indexes to pass.  The full brute-force top-k costs O(|O| * sum |F_i|) per
// query, so only the self-test (RunSelfTest) uses it.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "gen/dataset.h"

namespace perfbench {

/// Absolute tolerance on a score: every score is a sum of c terms in [0, 1].
inline constexpr double kScoreTolerance = 1e-9;

/// Every answer: min(k, |O|) entries of distinct, valid objects in
/// non-increasing score order.  Returns "" when it passes, else what is
/// wrong (as every check here does).
std::string CheckShape(const stpq::Query& query,
                       const stpq::QueryResult& result,
                       const std::vector<stpq::DataObject>& objects);

class AnswerChecker {
 public:
  /// `dataset` and `cross` must outlive the checker.  `cross` is an engine
  /// over the same dataset built with the other feature-index kind; it
  /// answers with STDS.
  AnswerChecker(const stpq::Dataset& dataset, const stpq::Engine& cross);

  /// Every returned score equals tau(p) recomputed by brute force.
  std::string CheckScores(const stpq::Query& query,
                          const stpq::QueryResult& result) const;

  /// The top-k score list equals STDS's on the other index kind.
  std::string CheckCross(const stpq::Query& query,
                         const stpq::QueryResult& result) const;

  /// The top-k score list equals the full brute-force top-k.
  std::string CheckBruteForce(const stpq::Query& query,
                              const stpq::QueryResult& result) const;

  /// CheckShape, CheckScores and CheckCross, first failure wins.
  std::string CheckSampled(const stpq::Query& query,
                           const stpq::QueryResult& result) const;

 private:
  const stpq::Dataset& dataset_;
  const stpq::Engine& cross_;
  stpq::BruteForceEvaluator brute_;
};

/// Checks STPS against the full brute force on a tiny dataset for every
/// score variant, then plants wrong answers and shows each is rejected.
/// Prints one line per case; returns the number of failed cases.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
