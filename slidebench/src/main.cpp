// slidebench: the repository's end-to-end benchmark.
//
//   slidebench --workload <xc-train|w2v-train|xc-serve> --seed <n> --seconds <s>
//              --trace <0|1> --dir <scratch dir> --out <trace dir>
//
// Prints per-phase operation counts, host steal time and any failed output
// check, then, as its last line, one JSON object: end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1.  Exits 1 when an output check
// fails, 2 on bad arguments or an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util.h"
#include "util/mem_info.h"
#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: slidebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --dir <dir> --out <dir>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slidebench;
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.spec = find_workload(val);
      if (opt.spec == nullptr) return usage(("unknown workload " + val).c_str());
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--dir") {
      opt.dir = val;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (opt.spec == nullptr) return usage("--workload is required");
  if (opt.dir.empty() || opt.out_dir.empty()) return usage("--dir and --out are required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  RunResult result;
  try {
    const double steal0 = host_steal_seconds();
    const ServeInputs in = run_training(opt, result);
    run_serving(opt, in, result);
    result.add("peak_rss_mib", static_cast<double>(slide::util::peak_rss_bytes()) / (1 << 20), "MiB");
    for (const PhaseCount& p : result.phases) {
      std::printf("phase %-10s attempted=%llu failed=%llu\n", p.phase.c_str(),
                  static_cast<unsigned long long>(p.attempted),
                  static_cast<unsigned long long>(p.failed));
    }
    std::printf("host steal during run: %.2f s\n", host_steal_seconds() - steal0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slidebench: %s\n", e.what());
    return 2;
  }
  std::printf("output checks: %zu run, %zu failed\n", result.checks.checks(),
              result.checks.failures().size());
  for (const std::string& f : result.checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", result_json(result, opt.trace).c_str());
  std::fflush(stdout);
  return result.checks.ok() ? 0 : 1;
}
