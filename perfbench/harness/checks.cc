#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "gen/queries.h"
#include "gen/synthetic.h"

namespace perfbench {
namespace {

std::vector<const stpq::FeatureTable*> TablePointers(
    const stpq::Dataset& dataset) {
  std::vector<const stpq::FeatureTable*> out;
  for (const stpq::FeatureTable& t : dataset.feature_tables) out.push_back(&t);
  return out;
}

std::string CompareScoreLists(const std::vector<stpq::ResultEntry>& got,
                              const std::vector<stpq::ResultEntry>& want,
                              const char* reference) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " entries, " + reference + " has " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i].score - want[i].score) > kScoreTolerance) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "rank %zu score %.12f, %s has %.12f", i,
                    got[i].score, reference, want[i].score);
      return buf;
    }
  }
  return "";
}

}  // namespace

AnswerChecker::AnswerChecker(const stpq::Dataset& dataset,
                             const stpq::Engine& cross)
    : dataset_(dataset),
      cross_(cross),
      brute_(&dataset.objects, TablePointers(dataset)) {}

std::string CheckShape(const stpq::Query& query,
                       const stpq::QueryResult& result,
                       const std::vector<stpq::DataObject>& objects) {
  const std::vector<stpq::ResultEntry>& e = result.entries;
  const size_t want = std::min<size_t>(query.k, objects.size());
  if (e.size() != want) {
    return std::to_string(e.size()) + " entries, want " + std::to_string(want);
  }
  for (size_t i = 0; i < e.size(); ++i) {
    if (e[i].object >= objects.size() ||
        objects[e[i].object].id != e[i].object) {
      return "rank " + std::to_string(i) + " names unknown object " +
             std::to_string(e[i].object);
    }
    if (i > 0 && e[i].score > e[i - 1].score) {
      return "scores increase at rank " + std::to_string(i);
    }
    for (size_t j = 0; j < i; ++j) {
      if (e[j].object == e[i].object) {
        return "object " + std::to_string(e[i].object) + " returned twice";
      }
    }
  }
  return "";
}

std::string AnswerChecker::CheckScores(const stpq::Query& query,
                                       const stpq::QueryResult& result) const {
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const stpq::ResultEntry& e = result.entries[i];
    const double tau = brute_.Tau(dataset_.objects[e.object].pos, query);
    if (std::fabs(tau - e.score) > kScoreTolerance) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu object %u score %.12f, brute-force tau %.12f", i,
                    static_cast<unsigned>(e.object), e.score, tau);
      return buf;
    }
  }
  return "";
}

std::string AnswerChecker::CheckCross(const stpq::Query& query,
                                      const stpq::QueryResult& result) const {
  stpq::Result<stpq::QueryResult> cross =
      cross_.Execute(query, stpq::Algorithm::kStds);
  if (!cross.ok()) {
    return "cross-check STDS failed: " + cross.status().ToString();
  }
  return CompareScoreLists(result.entries, cross.value().entries,
                           "STDS on the other index");
}

std::string AnswerChecker::CheckBruteForce(
    const stpq::Query& query, const stpq::QueryResult& result) const {
  return CompareScoreLists(result.entries, brute_.TopK(query), "brute force");
}

std::string AnswerChecker::CheckSampled(const stpq::Query& query,
                                        const stpq::QueryResult& result) const {
  std::string why = CheckShape(query, result, dataset_.objects);
  if (why.empty()) why = CheckScores(query, result);
  if (why.empty()) why = CheckCross(query, result);
  return why;
}

int RunSelfTest() {
  stpq::SyntheticConfig data_cfg;
  data_cfg.seed = 11;
  data_cfg.num_objects = 400;
  data_cfg.num_features_per_set = 400;
  data_cfg.vocabulary_size = 16;
  data_cfg.num_clusters = 40;
  const stpq::Dataset dataset = stpq::GenerateSynthetic(data_cfg);

  int failures = 0;
  auto report = [&failures](bool ok, const std::string& what,
                            const std::string& detail) {
    std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", what.c_str(),
                detail.empty() ? "" : ": ", detail.c_str());
    if (!ok) ++failures;
  };

  auto build = [&dataset](stpq::FeatureIndexKind kind) {
    stpq::EngineOptions options;
    options.index_kind = kind;
    return stpq::Engine::Build(dataset.objects, dataset.feature_tables,
                               options);
  };
  stpq::Result<stpq::Engine> srt = build(stpq::FeatureIndexKind::kSrt);
  stpq::Result<stpq::Engine> ir2 = build(stpq::FeatureIndexKind::kIr2);
  if (!srt.ok() || !ir2.ok()) {
    report(false, "build", (srt.ok() ? ir2 : srt).status().ToString());
    return failures;
  }
  const AnswerChecker checker(dataset, ir2.value());

  // Correct answers pass every check, including the full brute force.
  const std::pair<stpq::ScoreVariant, const char*> variants[] = {
      {stpq::ScoreVariant::kRange, "range"},
      {stpq::ScoreVariant::kInfluence, "influence"},
      {stpq::ScoreVariant::kNearestNeighbor, "nn"}};
  stpq::QueryWorkloadConfig query_cfg;
  query_cfg.count = 8;
  query_cfg.radius = 0.05;
  for (const auto& [variant, name] : variants) {
    query_cfg.variant = variant;
    std::string first_failure;
    for (const stpq::Query& q : stpq::GenerateQueries(dataset, query_cfg)) {
      stpq::Result<stpq::QueryResult> r =
          srt.value().Execute(q, stpq::Algorithm::kStps);
      std::string why = r.ok() ? checker.CheckSampled(q, r.value())
                               : r.status().ToString();
      if (why.empty()) why = checker.CheckBruteForce(q, r.value());
      if (first_failure.empty()) first_failure = why;
    }
    report(first_failure.empty(), std::string("correct ") + name + " answers",
           first_failure.empty()
               ? "8 queries pass shape, tau, STDS and brute-force checks"
               : first_failure);
  }

  // Planted wrong answers: each must be rejected by the sampled checks.
  // The query is chosen so the (k+1)-th object scores strictly below the
  // k-th, which lets one planted answer swap in a wrong but
  // self-consistent entry (correct score, valid order).
  query_cfg.variant = stpq::ScoreVariant::kRange;
  query_cfg.count = 64;
  stpq::BruteForceEvaluator brute(&dataset.objects, TablePointers(dataset));
  for (const stpq::Query& base : stpq::GenerateQueries(dataset, query_cfg)) {
    stpq::Query wide = base;
    wide.k = base.k + 1;
    const std::vector<stpq::ResultEntry> ranked = brute.TopK(wide);
    if (ranked.size() != wide.k ||
        ranked[base.k].score >= ranked[base.k - 1].score ||
        ranked[0].score <= ranked[base.k - 1].score) {
      continue;
    }
    stpq::Result<stpq::QueryResult> r =
        srt.value().Execute(base, stpq::Algorithm::kStps);
    if (!r.ok()) {
      report(false, "planted-answer query", r.status().ToString());
      return failures;
    }
    const stpq::QueryResult good = r.value();
    std::vector<std::pair<const char*, stpq::QueryResult>> planted;
    planted.emplace_back("first and last swapped", good);
    std::swap(planted.back().second.entries.front(),
              planted.back().second.entries.back());
    planted.emplace_back("last entry dropped", good);
    planted.back().second.entries.pop_back();
    planted.emplace_back("object repeated", good);
    planted.back().second.entries[1].object = good.entries[0].object;
    planted.emplace_back("top score inflated", good);
    planted.back().second.entries[0].score += 1e-3;
    planted.emplace_back("k-th object replaced by the (k+1)-th", good);
    planted.back().second.entries.back() = ranked[base.k];
    for (const auto& [name, bad] : planted) {
      const std::string why = checker.CheckSampled(base, bad);
      report(!why.empty(), std::string("planted wrong answer rejected (") +
                               name + ")",
             why.empty() ? "accepted" : why);
    }
    return failures;
  }
  report(false, "planted answers", "no query with a strict k-th score gap");
  return failures;
}

}  // namespace perfbench
