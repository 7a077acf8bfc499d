// Self-test of the benchmark: every output check accepts a right answer and
// rejects deliberately wrong ones, and every workload runs end to end at a
// tiny size with all checks passing and every metric reported.
//
//   python3 slidebench/run.py --selftest
//
// Takes the scratch directory for its inputs as its one argument.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "core/network.h"
#include "data/synthetic.h"
#include "infer/engine.h"
#include "infer/packed_model.h"
#include "threading/thread_pool.h"
#include "workloads.h"

namespace {

using namespace slidebench;
using namespace slide;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += !ok;
}

// A check must pass on the right answer...
void accepts(const std::string& why, const std::string& what) {
  expect(why.empty(), what + " accepted" + (why.empty() ? "" : ": " + why));
}
// ...and fail on a wrong one.
void rejects(const std::string& why, const std::string& what) {
  expect(!why.empty(), what + " rejected" + (why.empty() ? "" : ": " + why));
}

void test_reply_checks() {
  data::SyntheticConfig dc;
  dc.feature_dim = 300;
  dc.label_dim = 200;
  dc.num_train = 10;
  dc.num_test = 20;
  const auto sets = data::make_xc_datasets(dc);
  LshLayerConfig lsh;
  lsh.kind = HashKind::Dwta;
  lsh.k = 3;
  lsh.l = 8;
  lsh.min_active = 16;
  set_global_pool_threads(1);
  Network net(make_slide_mlp(dc.feature_dim, 16, dc.label_dim, lsh));
  const infer::PackedModel model = infer::PackedModel::freeze(net);
  infer::InferenceEngine engine(model);

  for (std::size_t i = 0; i < 3; ++i) {
    const auto x = sets.second.features(i);
    const std::vector<double> ref = reference_logits(model, x);
    const std::string tag = "query " + std::to_string(i) + ": ";
    std::vector<std::uint32_t> ids;
    std::vector<float> scores;

    engine.predict_topk(x, 5, ids, infer::TopKMode::Dense, &scores);
    accepts(check_dense_reply(ids, scores, ref), tag + "dense engine reply");
    {
      auto bad = ids;
      std::swap(bad[0], bad[4]);  // a lower-ranked id as top-1
      auto bad_scores = scores;
      std::swap(bad_scores[0], bad_scores[4]);
      std::sort(bad_scores.begin(), bad_scores.end(), std::greater<>());
      rejects(check_dense_reply(bad, bad_scores, ref), tag + "dense reply with wrong top-1");
    }
    {
      auto bad = scores;
      bad[1] += 0.5f;
      rejects(check_dense_reply(ids, bad, ref), tag + "dense reply with a wrong score");
    }
    {
      auto bad = ids;
      bad[2] = bad[1];
      rejects(check_dense_reply(bad, scores, ref), tag + "dense reply with a duplicate id");
    }
    {
      auto bad = ids;
      bad[3] = static_cast<std::uint32_t>(ref.size());
      rejects(check_dense_reply(bad, scores, ref), tag + "dense reply with an invalid id");
    }
    rejects(check_dense_reply({}, {}, ref), tag + "empty dense reply");

    engine.predict_topk(x, 5, ids, infer::TopKMode::Sampled, &scores);
    accepts(check_sampled_reply(ids, scores, ref), tag + "sampled engine reply");
    {
      auto bad_ids = ids;
      auto bad_scores = scores;
      std::reverse(bad_ids.begin(), bad_ids.end());
      std::reverse(bad_scores.begin(), bad_scores.end());
      rejects(check_sampled_reply(bad_ids, bad_scores, ref),
              tag + "sampled reply in ascending order");
    }
    {
      auto bad = scores;
      bad[0] -= 0.5f;
      std::sort(bad.begin(), bad.end(), std::greater<>());
      rejects(check_sampled_reply(ids, bad, ref), tag + "sampled reply with wrong scores");
    }
    {
      auto bad = ids;
      bad[1] = bad[0];
      rejects(check_sampled_reply(bad, scores, ref), tag + "sampled reply with a duplicate id");
    }
  }
}

void test_training_checks() {
  accepts(check_beats_constant(0.40, 0.10), "P@1 far above the constant predictor");
  rejects(check_beats_constant(0.12, 0.10), "P@1 barely above the constant predictor");
  rejects(check_beats_constant(0.10, 0.10), "P@1 equal to the constant predictor");
  accepts(check_same_p_at_1(0.5, 0.5), "equal engine and trainer P@1");
  rejects(check_same_p_at_1(0.5, 0.5 + 1.0 / 4000), "engine P@1 one hit off the trainer's");
  accepts(check_loss_fell(6.9, 2.3), "falling loss");
  rejects(check_loss_fell(2.3, 2.4), "rising loss");
  rejects(check_loss_fell(6.9, std::numeric_limits<double>::quiet_NaN()), "NaN loss");
  accepts(check_stream_count(8000, 8000), "full streamed epoch");
  rejects(check_stream_count(7999, 8000), "streamed epoch one example short");

  data::Dataset train(10, 5);
  const std::uint32_t idx[] = {1};
  const float val[] = {1.0f};
  for (const std::uint32_t l : {3u, 3u, 1u}) {
    const std::uint32_t labels[] = {l};
    train.add(idx, val, labels);
  }
  expect(most_frequent_label(train) == 3, "most frequent label found");
  expect(constant_p_at_1(train, 3, 3) == 2.0 / 3.0, "constant predictor P@1");
}

void test_workloads(const std::string& base) {
  for (const char* name : {"xc-train", "w2v-train", "xc-serve"}) {
    RunOptions opt;
    opt.spec = find_workload(name);
    opt.seed = 7;
    opt.seconds = 1;
    opt.trace = true;
    opt.tiny = true;
    opt.dir = base + "/" + name;
    opt.out_dir = opt.dir;
    std::filesystem::create_directories(opt.dir);
    RunResult r;
    try {
      run_serving(opt, run_training(opt, r), r);
    } catch (const std::exception& e) {
      expect(false, std::string(name) + " tiny run: " + e.what());
      continue;
    }
    for (const std::string& f : r.checks.failures()) std::printf("  check failed: %s\n", f.c_str());
    expect(r.checks.ok(), std::string(name) + " tiny run passes its output checks");
    std::uint64_t attempted = 0, failed = 0;
    for (const PhaseCount& p : r.phases) {
      attempted += p.attempted;
      failed += p.failed;
    }
    expect(attempted > 0 && failed == 0, std::string(name) + " tiny run: no failed operation");
    bool finite = r.metrics.size() == 6 && r.layer_metrics.size() == 23;
    for (const auto* ms : {&r.metrics, &r.layer_metrics}) {
      for (const Metric& m : *ms) finite = finite && std::isfinite(m.value);
    }
    expect(finite, std::string(name) + " tiny run reports every metric");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: slidebench_selftest <scratch dir>\n");
    return 2;
  }
  test_reply_checks();
  test_training_checks();
  test_workloads(argv[1]);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
