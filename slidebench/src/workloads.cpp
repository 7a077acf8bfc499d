#include "workloads.h"

namespace slidebench {

namespace {

//                    train  wire dense sampled  engine dense sampled  light busy
constexpr Rates kXc{2800, 1900, 13000, 2100, 22000, 100, 400};
constexpr Rates kW2v{8500, 6000, 20000, 10500, 50000, 200, 1000};

constexpr WorkloadSpec kWorkloads[] = {
    // name        kind            train serve
    {"xc-train", Kind::XcTrain, 0.7, 0.25, &kXc},
    {"w2v-train", Kind::W2vTrain, 0.7, 0.25, &kW2v},
    {"xc-serve", Kind::XcServe, 0.5, 0.45, &kXc},
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace slidebench
