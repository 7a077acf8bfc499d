// Output checks computed apart from the program under test.  Each function
// takes the program's answer and the benchmark's own reference and returns
// an empty string when the answer holds, else what is wrong with it.  The
// self-test feeds deliberately wrong answers through every one of them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "infer/packed_model.h"

namespace slidebench {

// Plain scalar forward pass over the frozen weights (PackedModel::layer(i).w
// and .bias), accumulated in double: the full output-layer logits.  Shares
// no kernel, sampler or table code with the engine.
std::vector<double> reference_logits(const slide::infer::PackedModel& model,
                                     slide::data::SparseVectorView x);

// A dense top-k reply: non-empty, distinct in-range ids, scores descending
// and equal to the reference logits of their ids, and a top-1 that is the
// reference argmax up to a float-tolerance tie.
std::string check_dense_reply(std::span<const std::uint32_t> ids,
                              std::span<const float> scores,
                              const std::vector<double>& reference);

// A sampled top-k reply: non-empty, distinct in-range ids, scores
// descending and equal to the reference logits of their ids.
std::string check_sampled_reply(std::span<const std::uint32_t> ids,
                                std::span<const float> scores,
                                const std::vector<double>& reference);

// The label that occurs in the most training examples (ties: lowest id).
std::uint32_t most_frequent_label(const slide::data::Dataset& train);

// Share of examples [0, n) whose label set contains `predicted[i]`.
double p_at_1(const slide::data::Dataset& test, std::span<const std::uint32_t> predicted);
// The same for one constant prediction.
double constant_p_at_1(const slide::data::Dataset& test, std::size_t n, std::uint32_t label);

// Held-out P@1 must be far above the best constant predictor's.
std::string check_beats_constant(double p_at_1, double constant_p_at_1);

// P@1 through the frozen engine must equal the trainer's own evaluation on
// the same examples (the dense paths are bit-identical by design).
std::string check_same_p_at_1(double engine_p_at_1, double trainer_p_at_1);

// Training must lower the loss: the final epoch's mean below the first
// window's.
std::string check_loss_fell(double first_window_loss, double final_epoch_loss);

// A streamed epoch must deliver exactly the examples written to disk.
std::string check_stream_count(std::size_t delivered, std::size_t generated);

}  // namespace slidebench
