// The benchmark's workloads.  Every workload runs the same pipeline on its
// own seeded inputs -- set up, train on one worker thread, check, freeze,
// serve over loopback, check -- so every metric has a value on every
// workload; the workloads differ in their inputs, in which set-up they time
// and in how the run's time is split between training and serving.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"

namespace slidebench {

enum class Kind {
  XcTrain,   // Amazon-670K-like XC loaded eagerly; times the training set-up
  W2vTrain,  // Text8-like skip-gram streamed from disk every epoch; times
             // the training set-up
  XcServe,   // the XcTrain inputs, trained before the timers; times the
             // serving set-up
};

// Nominal rates of one corpus's model (measured on the reference host, see
// README.md).  Work is sized from --seconds at these rates, never from the
// clock, so a run's work -- and with it the loss and P@1 -- depends on the
// seed and --seconds only.  They size the work; they are not expectations.
struct Rates {
  double train;           // training examples/s
  double wire_dense;      // dense closed-loop queries/s over the wire
  double wire_sampled;    // sampled closed-loop queries/s over the wire
  double engine_dense;    // dense queries/s of predict_topk_batch, 2 threads
  double engine_sampled;  // sampled queries/s of predict_topk_batch, 2 threads
  // Fixed open-loop rates, queries/s.  The busy rate sits well below the
  // dense saturation point so a slower host cannot tip it into backlog.
  double light;
  double busy;
};

struct WorkloadSpec {
  const char* name;
  Kind kind;
  double train_share;  // share of --seconds spent training
  double serve_share;  // share of --seconds spent serving
  const Rates* rates;

  bool skipgram() const { return kind == Kind::W2vTrain; }
};

// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;      // scratch directory for the generated input files
  std::string out_dir;  // where traced runs write their spans
  bool tiny = false;  // self-test size: small inputs, a few batches and queries
};

// Inputs the training phase hands to the serving phase.
struct ServeInputs {
  std::string model_path;
  std::string test_path;
};

// Generates the inputs, trains, checks and saves the model (train.cpp).
ServeInputs run_training(const RunOptions& opt, RunResult& out);
// Loads the saved model and serves it over loopback (serve.cpp).
void run_serving(const RunOptions& opt, const ServeInputs& in, RunResult& out);

}  // namespace slidebench
