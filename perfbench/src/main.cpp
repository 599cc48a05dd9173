// perfbench: the seeded benchmark for the counter library.
//
//   perfbench --workload selfmon|cluster_poll|profile --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// Each workload runs its own phase for most of the time budget, then the
// other two phases at companion scale, so every end-to-end metric has a
// value on every workload.  A metric comes from the workload's own phase
// when that phase measures it, otherwise from the companion that does
// (see README.md for the table).  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using perfbench::PhaseConfig;
using perfbench::Report;

using PhaseFn = void (*)(const PhaseConfig&, Report&);

struct Phase {
  const char* name;
  PhaseFn run;
};

constexpr Phase kPhases[] = {
    {"selfmon", perfbench::run_selfmon},
    {"cluster_poll", perfbench::run_cluster_poll},
    {"profile", perfbench::run_profile},
};

/// End-to-end metrics in BENCHMARK.json order, each with the phase that
/// measures it when the workload's own phase does not.  (The profile
/// phase's multiplexed accum() is a per-layer metric: its cold-cache
/// latency after every simulated region spreads too widely between runs.)
struct E2E {
  const char* name;
  const char* owner;
};
constexpr E2E kEndToEnd[] = {
    {"setup_s", nullptr},
    {"peak_rss_mb", nullptr},
    {"read_ns", "selfmon"},
    {"read_ns_p90", "selfmon"},
    {"accum_ns", "selfmon"},
    {"restart_ns", "selfmon"},
    {"poll_us", "cluster_poll"},
    {"poll_us_p90", "cluster_poll"},
    {"count_overhead_pct", "profile"},
    {"sample_overhead_pct", "profile"},
    {"mux_err_pct", "profile"},
    {"sim_mips", "profile"},
};

/// Share of the time budget the workload's own phase gets; the two
/// companions split the rest.
constexpr double kPrimaryShare = 0.5;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload selfmon|cluster_poll|profile "
               "--seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

void print_json_metrics(const std::vector<std::pair<std::string,
                                                    Report::Value>>& m) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.value,
                m[i].second.unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(a, "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (smoke) {
    if (seed < 0) seed = 1;
    if (seconds < 0) seconds = 1;
    if (trace < 0) trace = 1;
  }
  const Phase* primary = nullptr;
  for (const Phase& p : kPhases) {
    if (workload == p.name) primary = &p;
  }
  if (primary == nullptr || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  std::printf("# perfbench workload=%s seed=%lld seconds=%g trace=%d%s\n",
              workload.c_str(), seed, seconds, trace, smoke ? " smoke" : "");
  std::vector<Report> reports(std::size(kPhases));
  const double companion_share = (1.0 - kPrimaryShare) / 2;
  // The workload's own phase runs first, then the companions.
  std::vector<const Phase*> order = {primary};
  for (const Phase& p : kPhases) {
    if (&p != primary) order.push_back(&p);
  }
  for (const Phase* p : order) {
    PhaseConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.trace = trace == 1;
    cfg.smoke = smoke;
    cfg.primary = p == primary;
    cfg.budget_s = seconds * (cfg.primary ? kPrimaryShare : companion_share);
    p->run(cfg, reports[static_cast<std::size_t>(p - kPhases)]);
  }

  std::uint64_t attempted = 0, failed = 0, failed_checks = 0;
  double setup_s = 0;
  for (const Report& r : reports) {
    attempted += r.attempted;
    failed += r.failed;
    failed_checks += r.failed_checks;
    setup_s += r.setup_s;
  }
  const Report& own = reports[static_cast<std::size_t>(primary - kPhases)];

  std::vector<std::pair<std::string, Report::Value>> out;
  if (trace == 0) {
    for (const E2E& m : kEndToEnd) {
      Report::Value v;
      if (std::strcmp(m.name, "setup_s") == 0) {
        v = {setup_s, "s"};
      } else if (std::strcmp(m.name, "peak_rss_mb") == 0) {
        v = {perfbench::peak_rss_mb(), "MB"};
      } else if (auto it = own.e2e.find(m.name); it != own.e2e.end()) {
        v = it->second;
      } else {
        for (std::size_t i = 0; i < std::size(kPhases); ++i) {
          if (std::strcmp(kPhases[i].name, m.owner) != 0) continue;
          const auto jt = reports[i].e2e.find(m.name);
          if (jt != reports[i].e2e.end()) v = jt->second;
        }
      }
      out.emplace_back(m.name, v);
    }
  } else {
    for (const Report& r : reports) {
      for (const auto& [name, v] : r.layer) out.emplace_back(name, v);
    }
  }
  std::printf("# checks: %llu failed; ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(failed_checks),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_json_metrics(out);
  std::printf("}\n");
  return 0;
}
