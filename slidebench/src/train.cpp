// Training phase: seeded inputs written to XC files, timed set-up, training
// on one worker thread in equal windows, output checks, freeze and save.
//
// One worker thread, because HOGWILD on several threads lets gradient races
// change the learned weights and so the sampled active sets: the work
// itself then differs between runs.  On one thread every window repeats
// exactly and what spread remains is the host's.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/network.h"
#include "core/trainer.h"
#include "data/stream_reader.h"
#include "data/svm_reader.h"
#include "data/synthetic.h"
#include "data/text_corpus.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "threading/thread_pool.h"
#include "util/rng.h"
#include "workloads.h"

namespace slidebench {

using namespace slide;

namespace {

constexpr int kSetupRepeats = 3;
constexpr std::size_t kXcWindowExamples = 1024;
constexpr std::size_t kXcBatch = 256;
constexpr std::size_t kW2vBatch = 256;

// The training set as the trainer sees it: eager windows (slices of one
// file) or streamed shards (one file each).
struct TrainInputs {
  std::vector<std::string> train_paths;  // one file, or one per shard
  std::vector<std::size_t> train_counts; // examples written per file
  std::string test_path;
  std::uint32_t most_frequent_label = 0;  // over the training set
};

data::Dataset shuffled(const data::Dataset& ds, std::uint64_t seed) {
  std::vector<std::uint32_t> order(ds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  data::Dataset out(ds.feature_dim(), ds.label_dim());
  for (const std::uint32_t i : order) {
    const auto f = ds.features(i);
    out.add(f.index_span(), f.value_span(), ds.labels(i));
  }
  return out;
}

// Consecutive slices of `per` examples (the last one may be shorter).
std::vector<data::Dataset> slice(const data::Dataset& ds, std::size_t per) {
  std::vector<data::Dataset> out;
  for (std::size_t b = 0; b < ds.size(); b += per) {
    data::Dataset part(ds.feature_dim(), ds.label_dim());
    for (std::size_t i = b; i < std::min(ds.size(), b + per); ++i) {
      const auto f = ds.features(i);
      part.add(f.index_span(), f.value_span(), ds.labels(i));
    }
    out.push_back(std::move(part));
  }
  return out;
}

void write_shards(const data::Dataset& ds, std::size_t shards, const std::string& dir,
                  TrainInputs& in) {
  const std::vector<data::Dataset> parts = slice(ds, (ds.size() + shards - 1) / shards);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const std::string path = dir + "/train" + std::to_string(s) + ".txt";
    data::write_xc_file(path, parts[s]);
    in.train_paths.push_back(path);
    in.train_counts.push_back(parts[s].size());
  }
}

// Generated in-process with the repo's synthetic generators and written to
// disk before any timer starts.  The corpus itself is fixed, as a real
// dataset would be, so held-out P@1 compares across runs; --seed orders the
// training examples in the written files (and so the batches and shards),
// and seeds the network initialisation and the trainer.
TrainInputs generate_inputs(const RunOptions& opt, std::size_t shards) {
  TrainInputs in;
  std::pair<data::Dataset, data::Dataset> sets{data::Dataset(1, 1), data::Dataset(1, 1)};
  if (opt.spec->skipgram()) {
    data::CorpusConfig c = data::text8_like(0.02);  // ~5K vocabulary
    c.num_tokens = opt.tiny ? 6000 : 100000;
    if (opt.tiny) c.vocab_size = 400;
    sets = data::make_skipgram_datasets(c, 0.8);
  } else {
    data::SyntheticConfig c = data::amazon670k_like(opt.tiny ? 0.005 : 0.05);
    if (opt.tiny) {
      c.num_train = 1500;
      c.num_test = 300;
    }
    sets = data::make_xc_datasets(c);
  }
  in.most_frequent_label = most_frequent_label(sets.first);
  const data::Dataset train = shuffled(sets.first, mix64(opt.seed, 0x5B0FFull));
  if (opt.spec->skipgram()) {
    write_shards(train, shards, opt.dir, in);
  } else {
    in.train_paths.push_back(opt.dir + "/train.txt");
    in.train_counts.push_back(train.size());
    data::write_xc_file(in.train_paths[0], train);
  }
  in.test_path = opt.dir + "/test.txt";
  data::write_xc_file(in.test_path, sets.second);
  return in;
}

NetworkConfig network_config(const WorkloadSpec& spec, std::uint64_t seed,
                             std::size_t features, std::size_t labels) {
  LshLayerConfig lsh;
  if (spec.skipgram()) {
    lsh.kind = HashKind::SimHash;
    lsh.k = 9;
    lsh.l = 50;
  } else {
    lsh.kind = HashKind::Dwta;
    lsh.k = 5;
    lsh.l = 50;
  }
  lsh.min_active = std::max<std::size_t>(64, labels / 32);
  lsh.max_active = std::max<std::size_t>(512, labels / 8);
  lsh.rebuild_interval = 8;
  NetworkConfig cfg = make_slide_mlp(features, spec.skipgram() ? 200 : 128, labels, lsh,
                                     Precision::Fp32, mix64(seed, 0x1E7ull));
  // Skip-gram uses a linear projection as its hidden layer.
  if (spec.skipgram()) cfg.layers[0].activation = Activation::Linear;
  return cfg;
}

TrainerConfig trainer_config(const WorkloadSpec& spec, std::uint64_t seed) {
  TrainerConfig t;
  t.batch_size = spec.skipgram() ? kW2vBatch : kXcBatch;
  t.adam.lr = 3e-3f;
  t.seed = mix64(seed, 0x7124ull);
  return t;
}

// Everything set-up builds; rebuilt from scratch on every set-up repeat and
// destroyed, never assigned over, so teardown runs in reverse member order.
struct TrainState {
  std::unique_ptr<data::Dataset> train;  // eager workloads
  std::vector<std::unique_ptr<data::StreamingDataset>> shards;  // streamed workloads
  std::unique_ptr<data::Dataset> test;
  std::unique_ptr<Network> net;
  std::unique_ptr<Trainer> trainer;
};

// Per-layer totals of the traced windows.
struct LayerTotals {
  double forward_s = 0, backward_s = 0, adam_s = 0, rebuild_s = 0, wait_s = 0;
  std::uint64_t examples = 0, batches = 0, rebuilds = 0, active = 0;
  double output_row_bytes = 0;
};

// One batch driven from the benchmark's own loop, mirroring Trainer's:
// forward/backward per example, then adam_step and on_batch_end.
void traced_batch(Network& net, Workspace& ws, const data::Dataset& ds, std::size_t begin,
                  std::size_t end, const AdamConfig& adam, Tracer& tr, std::uint32_t parent,
                  LayerTotals& lt) {
  const std::uint32_t batch = tr.begin("batch", parent);
  const std::size_t hidden = net.layer(net.num_layers() - 1).input_dim();
  for (std::size_t i = begin; i < end; ++i) {
    const auto x = ds.features(i);
    const auto labels = ds.labels(i);
    const std::uint32_t f = tr.begin("core.forward", batch);
    net.forward(x, labels, ws, /*train=*/true);
    tr.end(f);
    const std::uint32_t b = tr.begin("core.backward", batch);
    net.backward(x, labels, ws);
    tr.end(b);
    const std::size_t active = ws.layers.back().active.size();
    lt.forward_s += tr.seconds(f);
    lt.backward_s += tr.seconds(b);
    lt.active += active;
    lt.output_row_bytes += static_cast<double>(active * hidden * sizeof(float));
  }
  lt.examples += end - begin;
  const std::uint32_t a = tr.begin("core.adam", batch);
  net.adam_step(adam, &global_pool());
  tr.end(a);
  lt.adam_s += tr.seconds(a);
  const std::uint32_t r = tr.begin("lsh.on_batch_end", batch);
  const std::size_t refreshed = net.on_batch_end(&global_pool());
  tr.end(r);
  if (refreshed > 0) {
    lt.rebuilds += refreshed;
    lt.rebuild_s += tr.seconds(r);
  }
  ++lt.batches;
  tr.end(batch);
}

// A traced window over one eager slice; returns its examples.
std::size_t traced_eager_window(Network& net, Workspace& ws, const data::Dataset& ds,
                                std::size_t bs, const AdamConfig& adam, Tracer& tr,
                                LayerTotals& lt) {
  const std::uint32_t w = tr.begin("window");
  for (std::size_t b = 0; b < ds.size(); b += bs) {
    traced_batch(net, ws, ds, b, std::min(ds.size(), b + bs), adam, tr, w, lt);
  }
  tr.end(w);
  return ds.size();
}

// A traced window over one streamed shard: each chunk from
// ChunkStream::next is cut into batches (a chunk's tail makes a short batch).
std::size_t traced_stream_window(Network& net, Workspace& ws, data::StreamingDataset& shard,
                                 std::uint64_t seed, std::uint64_t epoch, std::size_t bs,
                                 const AdamConfig& adam, Tracer& tr, LayerTotals& lt) {
  const std::uint32_t w = tr.begin("window");
  data::ChunkStream stream = shard.begin_epoch(seed, epoch, /*shuffle=*/true);
  std::size_t examples = 0;
  while (true) {
    const std::uint32_t n = tr.begin("data.next", w);
    std::optional<data::Dataset> chunk = stream.next();
    tr.end(n);
    lt.wait_s += tr.seconds(n);
    if (!chunk) break;
    for (std::size_t b = 0; b < chunk->size(); b += bs) {
      traced_batch(net, ws, *chunk, b, std::min(chunk->size(), b + bs), adam, tr, w, lt);
    }
    examples += chunk->size();
  }
  tr.end(w);
  return examples;
}

}  // namespace

ServeInputs run_training(const RunOptions& opt, RunResult& out) {
  const WorkloadSpec& spec = *opt.spec;
  set_global_pool_threads(1);

  // Streamed workloads split the training set into shard files; one
  // streamed epoch over one shard is one window.
  const std::size_t shards = opt.tiny ? 2 : 10;
  const TrainInputs in = generate_inputs(opt, shards);

  // --- set-up, repeated on training workloads; the median is reported ---
  // The serving workload trains before the timers and times its serving
  // set-up instead.
  const bool timed_setup = spec.kind != Kind::XcServe;
  std::unique_ptr<TrainState> st;
  std::vector<double> setup_s, parse_s;
  for (int rep = 0; rep < (timed_setup ? kSetupRepeats : 1); ++rep) {
    st.reset();  // the destructor tears the state down in reverse order
    st = std::make_unique<TrainState>();
    const Clock::time_point t0 = Clock::now();
    if (spec.skipgram()) {
      for (const std::string& p : in.train_paths) {
        data::StreamingConfig sc;
        sc.chunk_bytes = 64u << 10;
        st->shards.push_back(std::make_unique<data::StreamingDataset>(p, sc));
      }
    } else {
      st->train = std::make_unique<data::Dataset>(data::read_xc_file(in.train_paths[0]));
    }
    st->test = std::make_unique<data::Dataset>(data::read_xc_file(in.test_path));
    const Clock::time_point t1 = Clock::now();
    const std::size_t features = st->test->feature_dim();
    const std::size_t labels = st->test->label_dim();
    st->net = std::make_unique<Network>(network_config(spec, opt.seed, features, labels));
    st->trainer = std::make_unique<Trainer>(*st->net, trainer_config(spec, opt.seed));
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    parse_s.push_back(seconds_between(t0, t1));
  }
  const TrainerConfig tcfg = trainer_config(spec, opt.seed);

  // --- windows ----------------------------------------------------------
  std::vector<data::Dataset> slices;
  std::size_t per_pass;  // windows in one pass over the training set
  std::size_t n_train = 0;
  if (spec.skipgram()) {
    per_pass = st->shards.size();
    for (const std::size_t c : in.train_counts) n_train += c;
  } else {
    slices = slice(*st->train, kXcWindowExamples);
    per_pass = slices.size();
    n_train = st->train->size();
  }
  const double window_examples = static_cast<double>(n_train) / static_cast<double>(per_pass);
  const std::size_t windows =
      opt.tiny ? 8 * per_pass
               : std::max<std::size_t>(
                     3, static_cast<std::size_t>(opt.seconds * spec.train_share *
                                                     spec.rates->train / window_examples +
                                                 0.5));

  Tracer tracer;
  LayerTotals lt;
  Workspace traced_ws = st->net->make_workspace(mix64(opt.seed, 0x7ACEull));
  std::vector<double> loss, examples;
  // Rates are taken over the process's CPU time (every thread: the trainer's
  // pool worker and the stream loader), summed over all windows after the
  // first, which warms caches and allocators.  CPU time leaves out what the
  // host steals from the vCPU (paravirtual steal accounting), which moved
  // wall-clock window rates by tens of percent between runs; a sum, not a
  // median of windows, because the windows that hold an LSH table rebuild
  // are the slow ones, and a median would leave the rebuilds out.
  struct Span {
    double examples = 0, cpu_s = 0, wall_s = 0;
    double per_cpu_s() const { return examples / cpu_s; }
  } timed, traced_timed;
  PhaseCount& train_ops = out.phase("train");
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t k = w % per_pass;
    // Traced runs alternate traced and untraced windows, so the tracing
    // overhead is measured on the same model state and host conditions.
    const bool traced = opt.trace && w % 2 == 1;
    std::size_t n = 0;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    if (traced) {
      n = spec.skipgram() ? traced_stream_window(*st->net, traced_ws, *st->shards[k],
                                             tcfg.seed, 1000 + w, tcfg.batch_size, tcfg.adam,
                                             tracer, lt)
                      : traced_eager_window(*st->net, traced_ws, slices[k], tcfg.batch_size,
                                            tcfg.adam, tracer, lt);
      loss.push_back(0.0);  // the benchmark's loop does not read the loss
    } else if (spec.skipgram()) {
      st->trainer->train_one_epoch(*st->shards[k]);
      n = st->trainer->last_stream_stats().examples;
      loss.push_back(st->trainer->last_avg_loss());
    } else {
      st->trainer->train_one_epoch(slices[k]);
      n = slices[k].size();
      loss.push_back(st->trainer->last_avg_loss());
    }
    if (w > 0) {
      Span& sp = traced ? traced_timed : timed;
      sp.examples += static_cast<double>(n);
      sp.cpu_s += process_cpu_seconds() - cpu0;
      sp.wall_s += seconds_between(t0, Clock::now());
    }
    if (spec.skipgram()) {
      const std::string why = check_stream_count(n, in.train_counts[k]);
      out.checks.expect(why.empty(), "shard " + std::to_string(k) + ": " + why);
    }
    train_ops.attempted += (n + tcfg.batch_size - 1) / tcfg.batch_size;
    examples.push_back(static_cast<double>(n));
  }
  // Wall-clock rate beside it, as a diagnostic for host drift.
  std::printf("train rate: %.1f examples per CPU-second, %.1f per wall-second\n",
              timed.per_cpu_s(), timed.examples / timed.wall_s);

  // The final epoch: the last pass's worth of windows.
  double loss_sum = 0, loss_n = 0;
  for (std::size_t w = windows - std::min(windows, per_pass); w < windows; ++w) {
    if (opt.trace && w % 2 == 1) continue;
    loss_sum += loss[w] * examples[w];
    loss_n += examples[w];
  }
  const double final_loss = loss_sum / loss_n;
  {
    const std::string why = check_loss_fell(loss[0], final_loss);
    out.checks.expect(why.empty(), why);
  }

  // --- held-out P@1, checked against the frozen engine and a constant ----
  // Untimed, so it uses every CPU; dense prediction answers the same on any
  // number of threads.  The global pool keeps these threads for the serving
  // set-up, whose LSH table build (PackedModel::load_file) runs on it.
  constexpr unsigned kEvalThreads = 4;
  set_global_pool_threads(kEvalThreads);
  const data::Dataset& test = *st->test;
  const std::size_t n_eval = opt.tiny ? std::min<std::size_t>(test.size(), 200) : test.size();
  PhaseCount& eval_ops = out.phase("eval");
  const double trainer_p1 = st->trainer->evaluate_p_at_1(test, n_eval);
  eval_ops.attempted += n_eval;

  const infer::PackedModel frozen = infer::PackedModel::freeze(*st->net);
  {
    infer::InferenceEngine engine(frozen);
    ThreadPool pool(kEvalThreads);
    std::vector<data::SparseVectorView> xs(n_eval);
    for (std::size_t i = 0; i < n_eval; ++i) xs[i] = test.features(i);
    std::vector<std::uint32_t> top1(n_eval);
    engine.predict_topk_batch(xs, 1, top1.data(), nullptr, infer::TopKMode::Dense, &pool);
    eval_ops.attempted += n_eval;
    const std::string same = check_same_p_at_1(p_at_1(test, top1), trainer_p1);
    out.checks.expect(same.empty(), same);
  }
  // The best constant predictor: the label most frequent in training.
  const double constant_p1 = constant_p_at_1(test, n_eval, in.most_frequent_label);
  {
    const std::string why = check_beats_constant(trainer_p1, constant_p1);
    out.checks.expect(why.empty(), why);
  }
  std::printf("train: windows=%zu window_examples=%.0f loss first=%.4f final=%.4f "
              "P@1=%.4f constant_P@1=%.4f\n",
              windows, window_examples, loss[0], final_loss, trainer_p1, constant_p1);

  ServeInputs serve_in;
  serve_in.model_path = opt.dir + "/model.sldp";
  serve_in.test_path = in.test_path;
  frozen.save_file(serve_in.model_path);

  if (timed_setup) out.add("setup_s", median(setup_s), "s");
  out.add("train_examples_per_s", timed.per_cpu_s(), "1/s");
  out.add("train_loss", final_loss, "nats");
  out.add("train_p_at_1", trainer_p1, "ratio");

  out.add_layer("data.parse_s", median(parse_s), "s");
  if (opt.trace) {
    const double ex = static_cast<double>(lt.examples);
    out.add_layer("data.wait_ms_per_batch", 1e3 * lt.wait_s / static_cast<double>(lt.batches),
                  "ms");
    out.add_layer("core.forward_us", 1e6 * lt.forward_s / ex, "us");
    out.add_layer("core.backward_us", 1e6 * lt.backward_s / ex, "us");
    out.add_layer("core.adam_ms", 1e3 * lt.adam_s / static_cast<double>(lt.batches), "ms");
    out.add_layer("lsh.rebuilds", static_cast<double>(lt.rebuilds), "count");
    out.add_layer("lsh.rebuild_ms",
                  lt.rebuilds ? 1e3 * lt.rebuild_s / static_cast<double>(lt.rebuilds) : 0.0,
                  "ms");
    out.add_layer("lsh.active_per_example", static_cast<double>(lt.active) / ex, "count");
    out.add_layer("kernels.output_gb_per_s",
                  lt.output_row_bytes / (lt.forward_s + lt.backward_s) / 1e9, "GB/s");
    out.add_layer("trace.overhead_ratio", traced_timed.per_cpu_s() / timed.per_cpu_s(), "ratio");
    tracer.write_csv(opt.out_dir + "/" + spec.name + "-train-spans.csv");
  }
  return serve_in;
}

}  // namespace slidebench
