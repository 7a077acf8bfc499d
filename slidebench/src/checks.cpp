#include "checks.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace slidebench {

using slide::Activation;
using slide::infer::PackedModel;

std::vector<double> reference_logits(const PackedModel& model,
                                     slide::data::SparseVectorView x) {
  std::vector<double> prev;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const PackedModel::Layer& L = model.layer(i);
    std::vector<double> out(L.dim);
    for (std::size_t n = 0; n < L.dim; ++n) {
      const float* row = L.w.data() + n * L.input_dim;
      double acc = L.bias[n];
      if (i == 0) {
        for (std::size_t j = 0; j < x.nnz; ++j) {
          acc += static_cast<double>(x.values[j]) * row[x.indices[j]];
        }
      } else {
        for (std::size_t j = 0; j < L.input_dim; ++j) acc += prev[j] * row[j];
      }
      const bool hidden = i + 1 < model.num_layers();
      out[n] = hidden && L.activation() == Activation::ReLU ? std::max(0.0, acc) : acc;
    }
    prev = std::move(out);
  }
  return prev;
}

namespace {

// Allowed gap between an engine logit (fp32, vectorized summation order)
// and the double-precision reference.
double logit_tolerance(double reference) { return 1e-3 + 1e-4 * std::fabs(reference); }

std::string check_ranked_ids(std::span<const std::uint32_t> ids, std::span<const float> scores,
                             const std::vector<double>& reference) {
  if (ids.empty()) return "empty reply";
  if (ids.size() != scores.size()) return "ids and scores differ in length";
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= reference.size()) return "id " + std::to_string(ids[i]) + " out of range";
    if (!seen.insert(ids[i]).second) return "duplicate id " + std::to_string(ids[i]);
    if (i > 0 && scores[i] > scores[i - 1]) return "scores not descending";
    const double ref = reference[ids[i]];
    if (std::fabs(scores[i] - ref) > logit_tolerance(ref)) {
      return "score of id " + std::to_string(ids[i]) + " is " + std::to_string(scores[i]) +
             ", reference logit " + std::to_string(ref);
    }
  }
  return {};
}

}  // namespace

std::string check_dense_reply(std::span<const std::uint32_t> ids,
                              std::span<const float> scores,
                              const std::vector<double>& reference) {
  std::string why = check_ranked_ids(ids, scores, reference);
  if (!why.empty()) return why;
  const double best = *std::max_element(reference.begin(), reference.end());
  if (reference[ids[0]] < best - logit_tolerance(best)) {
    return "top-1 id " + std::to_string(ids[0]) + " has logit " +
           std::to_string(reference[ids[0]]) + " below the reference maximum " +
           std::to_string(best);
  }
  return {};
}

std::string check_sampled_reply(std::span<const std::uint32_t> ids,
                                std::span<const float> scores,
                                const std::vector<double>& reference) {
  return check_ranked_ids(ids, scores, reference);
}

std::uint32_t most_frequent_label(const slide::data::Dataset& train) {
  std::vector<std::uint64_t> counts(train.label_dim(), 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    for (const std::uint32_t l : train.labels(i)) ++counts[l];
  }
  return static_cast<std::uint32_t>(std::max_element(counts.begin(), counts.end()) -
                                    counts.begin());
}

double p_at_1(const slide::data::Dataset& test, std::span<const std::uint32_t> predicted) {
  if (predicted.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const auto labels = test.labels(i);
    hits += std::find(labels.begin(), labels.end(), predicted[i]) != labels.end();
  }
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

double constant_p_at_1(const slide::data::Dataset& test, std::size_t n, std::uint32_t label) {
  const std::vector<std::uint32_t> predicted(n, label);
  return p_at_1(test, predicted);
}

std::string check_beats_constant(double p, double constant) {
  // "Far above": half as much again as the constant predictor, and at
  // least 5 points clear of it.
  if (p >= 1.5 * constant && p >= constant + 0.05) return {};
  return "held-out P@1 " + std::to_string(p) + " is not far above the constant predictor's " +
         std::to_string(constant);
}

std::string check_same_p_at_1(double engine, double trainer) {
  if (engine == trainer) return {};
  return "engine P@1 " + std::to_string(engine) + " differs from the trainer's " +
         std::to_string(trainer);
}

std::string check_loss_fell(double first_window_loss, double final_epoch_loss) {
  if (std::isfinite(final_epoch_loss) && final_epoch_loss < first_window_loss) return {};
  return "final-epoch loss " + std::to_string(final_epoch_loss) +
         " is not below the first window's " + std::to_string(first_window_loss);
}

std::string check_stream_count(std::size_t delivered, std::size_t generated) {
  if (delivered == generated) return {};
  return "streamed epoch delivered " + std::to_string(delivered) + " examples, " +
         std::to_string(generated) + " were written";
}

}  // namespace slidebench
